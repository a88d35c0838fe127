#ifndef AQE_OBS_QUERY_PROFILE_H_
#define AQE_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/function_handle.h"
#include "index/access_path.h"
#include "obs/tracer.h"

namespace aqe {

struct QueryRunResult;  // engine/query_engine.h (avoids a circular include)

/// Per-(pipeline, ExecMode) execution summary folded out of the morsel
/// events: how many morsels/tuples ran in that mode, the summed per-morsel
/// busy time across all workers, and the wall-clock footprint (the union of
/// the mode's morsel intervals — what "time spent in this mode" means when
/// several workers overlap).
struct ModeSliceProfile {
  ExecMode mode = ExecMode::kBytecode;
  uint64_t morsels = 0;
  uint64_t tuples = 0;
  double busy_seconds = 0;
  double wall_seconds = 0;

  double tuples_per_sec() const {
    return busy_seconds > 0 ? static_cast<double>(tuples) / busy_seconds : 0;
  }
};

/// One §III-C compile decision audited: the controller's extrapolated
/// durations against the remainder the pipeline actually took.
struct ModeSwitchProfile {
  ExecMode target = ExecMode::kUnoptimized;
  double r0 = 0;                 ///< observed rate [tuples/s/thread]
  uint64_t remaining_tuples = 0;
  double t_current_seconds = 0;  ///< predicted: stay in current mode
  double predicted_seconds = 0;  ///< predicted: T(chosen)
  double realized_seconds = 0;   ///< decision -> pipeline end, measured

  /// Signed prediction error: +x% means the switch ran x% slower than the
  /// extrapolation promised.
  double error_pct() const {
    return predicted_seconds > 0
               ? (realized_seconds - predicted_seconds) / predicted_seconds *
                     100.0
               : 0;
  }
};

struct PipelineProfile {
  std::string name;
  uint32_t pipeline_index = 0;
  uint64_t tuples = 0;
  double wall_seconds = 0;       ///< pipeline start -> drained
  double exec_only_seconds = 0;  ///< wall minus blocking compile
  ExecMode initial_mode = ExecMode::kBytecode;
  ExecMode final_mode = ExecMode::kBytecode;
  bool artifact_cache_hit = false;
  /// Scan-pruning access-path decision (pruning.analyzed == false when the
  /// source table has no indexes or pruning was disabled for the run).
  PruningStats pruning;
  bool pruning_cache_hit = false;  ///< decision reused, analysis skipped
  std::vector<ModeSliceProfile> modes;
  std::vector<ModeSwitchProfile> switches;
};

/// Everything EXPLAIN ANALYZE knows about one completed query, folded from
/// the engine's trace rings (events keyed by query id) plus the run result.
struct QueryProfile {
  uint32_t query_id = 0;
  std::string plan_name;
  double total_seconds = 0;
  double queue_wait_seconds = 0;  ///< time-in-queue (admission -> first slice)
  double exec_seconds = 0;        ///< result.exec_seconds_total
  /// Exec time spent in the serial engine steps between pipelines
  /// (join-table creation, aggregate merge, sort, top-k):
  /// result.step_seconds_total. With it, the per-pipeline per-mode
  /// breakdown below sums back to exec_seconds (morsel-loop bookkeeping is
  /// the only unattributed rest).
  double engine_step_seconds = 0;
  /// Time-on-CPU: summed task-slice durations plus helper-morsel time that
  /// ran outside the query's own slices. > exec when workers overlap.
  double on_cpu_seconds = 0;
  /// JIT wall time this query paid itself (kCompile events attributed to
  /// it). 0 on warm runs — the cache absorbed compilation.
  double compile_seconds = 0;
  uint64_t compiles = 0;
  uint64_t cache_hits = 0;  ///< artifacts reused instead of compiled
  /// Continuous-profiler samples attributed to this query (0 when the
  /// sampler never caught it — short queries at low Hz).
  uint64_t cpu_samples = 0;
  /// Peak tracked allocation across the query's lifetime (memory
  /// accounting; 0 when the engine ran without a tracker).
  uint64_t peak_memory_bytes = 0;
  /// True when any trace ring dropped events inside the query's window:
  /// morsel/mode aggregates below may undercount.
  bool lossy = false;
  std::vector<PipelineProfile> pipelines;

  std::string ToJson() const;
};

/// Folds `snapshot`'s events for `query_id` into a QueryProfile. The
/// snapshot must be taken after the query completed (the engine does this
/// before resolving the promise when QueryRunOptions::collect_profile is
/// set); `result` supplies the per-pipeline reports and totals.
QueryProfile BuildQueryProfile(const TraceSnapshot& snapshot,
                               const QueryRunResult& result,
                               uint32_t query_id,
                               const std::string& plan_name);

/// Human-readable profile: per-pipeline per-mode time, throughput, and one
/// predicted-vs-realized verdict line per mode switch. Returns a hint when
/// the result carries no profile (collect_profile was off).
std::string ExplainAnalyze(const QueryRunResult& result);

}  // namespace aqe

#endif  // AQE_OBS_QUERY_PROFILE_H_
