#include "src/spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/timer.h"
#include "src/report.h"

namespace perfbench {

int64_t SpanLog::Begin(const std::string& name, int64_t parent,
                       int64_t query) {
  int64_t now = aqe::MonotonicNanos();
  return Add(name, parent, query, now, now);
}

void SpanLog::End(int64_t id) {
  int64_t now = aqe::MonotonicNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t SpanLog::Add(const std::string& name, int64_t parent, int64_t query,
                     int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, query, start_ns, end_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog* log, const std::string& name, int64_t parent,
                       int64_t query)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->Begin(name, parent, query);
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->End(id_);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.parent < static_cast<int64_t>(spans.size())) {
      children[static_cast<size_t>(span.parent)].push_back(
          {span.start_ns, span.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cursor = lo;
    for (const auto& [start, end] : kids) {
      int64_t s = std::max(start, cursor), e = std::min(end, hi);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self[i] = std::max<int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::vector<double> SelfSecondsPerQuery(const std::vector<Span>& spans,
                                        const std::vector<int64_t>& self_ns,
                                        const std::string& name) {
  std::map<int64_t, double> per_query;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) {
      per_query[spans[i].query] += static_cast<double>(self_ns[i]) * 1e-9;
    }
  }
  std::vector<double> out;
  for (const auto& entry : per_query) out.push_back(entry.second);
  return out;
}

std::vector<double> SelfSecondsPerSpan(const std::vector<Span>& spans,
                                       const std::vector<int64_t>& self_ns,
                                       const std::string& name) {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) {
      out.push_back(static_cast<double>(self_ns[i]) * 1e-9);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self_ns) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": %s, \"parent\": %lld, \"query\": "
                 "%lld, \"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": "
                 "%lld}\n",
                 i, JsonString(s.name).c_str(),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self_ns[i]));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
