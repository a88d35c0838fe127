#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer, recorded by the benchmark around the call
/// (nothing inside the engine is instrumented). `parent` is the id of the
/// span that caused it (-1 for a root); spans of one query share `query`.
struct Span {
  std::string name;
  int64_t parent = -1;
  int64_t query = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store of the traced run. Ids are indexes into the store;
/// thread-safe. The untraced run passes a null SpanLog* everywhere, so its
/// only cost there is a branch.
class SpanLog {
 public:
  int64_t Begin(const std::string& name, int64_t parent, int64_t query);
  void End(int64_t id);
  /// Records an interval the layer measured itself (e.g. an index build
  /// time reported by the storage layer).
  int64_t Add(const std::string& name, int64_t parent, int64_t query,
              int64_t start_ns, int64_t end_ns);
  std::vector<Span> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t parent,
             int64_t query);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_ = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its child spans covers. Parallel to `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self times (seconds) of the spans called `name`, summed per query id,
/// in ascending query order.
std::vector<double> SelfSecondsPerQuery(const std::vector<Span>& spans,
                                        const std::vector<int64_t>& self_ns,
                                        const std::string& name);

/// Self times (seconds) of the spans called `name`, one entry per span.
std::vector<double> SelfSecondsPerSpan(const std::vector<Span>& spans,
                                       const std::vector<int64_t>& self_ns,
                                       const std::string& name);

/// Writes one JSON object per span (id, name, parent, query, start/end ns,
/// self ns). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
