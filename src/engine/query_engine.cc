#include "engine/query_engine.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "adaptive/calibrate.h"
#include "cache/fingerprint.h"
#include "codegen/query_compiler.h"
#include "common/status.h"
#include "common/timer.h"
#include "exec/morsel.h"
#include "jit/jit_compiler.h"
#include "jit/naive_interpreter.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/stats_server.h"
#include "runtime/runtime_registry.h"
#include "sched/scheduler.h"
#include "sched/task.h"
#include "vm/interpreter.h"
#include "volcano/volcano.h"
#include "vectorized/vectorized.h"

namespace aqe {
namespace {

/// WorkerFn trampoline dispatching a morsel into the bytecode VM; `extra`
/// is the BcProgram (§IV-E interoperability). One instantiation per
/// dispatch engine: the dispatch belongs to the query's run, not to the
/// (shared, cached) program.
template <VmDispatch kDispatch>
void VmWorkerTrampoline(void* state, uint64_t begin, uint64_t end,
                        const void* extra) {
  const auto* program = static_cast<const BcProgram*>(extra);
  uint64_t args[4] = {reinterpret_cast<uint64_t>(state), begin, end,
                      reinterpret_cast<uint64_t>(extra)};
  VmExecute(*program, args, 4, kDispatch);
}

WorkerFn VmWorkerFor(VmDispatch dispatch) {
  return VmResolveDispatch(dispatch) == VmDispatch::kThreaded
             ? &VmWorkerTrampoline<VmDispatch::kThreaded>
             : &VmWorkerTrampoline<VmDispatch::kSwitch>;
}

void NeverCalledWorker(void*, uint64_t, uint64_t, const void*) {
  AQE_UNREACHABLE("placeholder worker variant must never run");
}

}  // namespace

/// The engine's observability state: the always-on tracer, the metrics
/// registry, and pre-resolved metric handles so query/morsel hot paths
/// never touch the registry's mutex. One per engine, alive for its whole
/// lifetime (declared before the scheduler, so tasks finishing during
/// shutdown still record safely).
struct EngineObs {
  EngineTracer tracer;
  MetricsRegistry metrics;
  std::atomic<uint32_t> next_query_id{1};

  /// Per-lane beacons the continuous profiler samples. Lives here (before
  /// the scheduler in Impl) so a worker publishing during shutdown still
  /// touches live memory.
  BeaconBoard beacons;

  // Declaration order matters: handles resolve against `metrics` above.
  Counter* queries_submitted = metrics.GetCounter("engine.queries_submitted");
  Counter* queries_completed = metrics.GetCounter("engine.queries_completed");
  Counter* morsels = metrics.GetCounter("exec.morsels");
  Counter* mode_switches = metrics.GetCounter("adaptive.mode_switches");
  Counter* compiles = metrics.GetCounter("jit.compiles");
  Counter* anomalies = metrics.GetCounter("engine.anomalies");
  /// Per-cause anomaly counters, indexed by AnomalyCause.
  Counter* anomalies_by_cause[5] = {
      metrics.GetCounter("engine.anomalies.unknown"),
      metrics.GetCounter("engine.anomalies.cache_evicted"),
      metrics.GetCounter("engine.anomalies.mode_regressed"),
      metrics.GetCounter("engine.anomalies.queue_wait"),
      metrics.GetCounter("engine.anomalies.memory_blowup"),
  };
  /// Memory-budget enforcement outcomes, split by where the query failed.
  Counter* budget_rej_admission =
      metrics.GetCounter("mem.budget_rejections.admission");
  Counter* budget_rej_runtime =
      metrics.GetCounter("mem.budget_rejections.runtime");
  /// Accepted (coherent) profiler samples — liveness signal for /metrics.
  Counter* profiler_samples = metrics.GetCounter("profiler.samples");
  Histogram* compile_us = metrics.GetHistogram("jit.compile_us");
  // Scan pruning (src/index/): registry counters, so metrics.Reset()
  // covers them (phase-delta hygiene) and BuildSnapshot picks them up with
  // every other registry metric.
  Counter* pruned_pipelines = metrics.GetCounter("index.pruned_pipelines");
  Counter* rows_pruned = metrics.GetCounter("index.rows_pruned");
  Counter* rows_selected = metrics.GetCounter("index.rows_selected");
  Counter* zone_blocks_pruned = metrics.GetCounter("index.zone_blocks_pruned");
  Counter* posting_entries = metrics.GetCounter("index.posting_entries");
  Counter* prune_cache_hits = metrics.GetCounter("index.prune_cache_hits");
  Counter* prune_cache_misses =
      metrics.GetCounter("index.prune_cache_misses");
  Histogram* queue_wait_us[kNumTaskClasses];
  Histogram* exec_latency_us[kNumTaskClasses];
  /// Completed queries' tracked peak bytes, per admission class — the
  /// distribution class budgets are set against.
  Histogram* mem_peak_by_class[kNumTaskClasses];

  /// Per-fingerprint latency sentinel (obs/regression.h); fed by every
  /// completed cached query, read by snapshots and the stats server.
  RegressionTracker sentinel;

  /// Ring of the last kRecentProfiles collect_profile query profiles, for
  /// the stats server's /profiles endpoint. shared_ptr: a client holding
  /// the query's own result shares the same object.
  static constexpr size_t kRecentProfiles = 64;
  mutable std::mutex profiles_mu;
  std::deque<std::shared_ptr<const QueryProfile>> recent_profiles;

  /// Serializes ResetObservabilityStats against snapshot assembly: a
  /// snapshot taken concurrently with a reset sees either every resettable
  /// source pre-reset or every one post-reset, never a mix. `stats_epoch`
  /// counts resets and is exported as the `obs.epoch` gauge so readers can
  /// detect that a phase boundary moved under them.
  mutable std::mutex stats_mu;
  std::atomic<uint64_t> stats_epoch{0};

  /// Live per-query memory trackers, for the mem.current_bytes gauge.
  /// weak_ptr: a finished query's tracker drops out on its own; Submit
  /// prunes expired slots opportunistically.
  mutable std::mutex trackers_mu;
  std::vector<std::weak_ptr<QueryMemoryTracker>> live_trackers;
  /// Engine-lifetime high-water across all queries' tracked peaks.
  std::atomic<uint64_t> engine_peak_bytes{0};

  EngineObs() {
    char name[64];
    for (int c = 0; c < kNumTaskClasses; ++c) {
      std::snprintf(name, sizeof(name), "admission.queue_wait_us.class%d", c);
      queue_wait_us[c] = metrics.GetHistogram(name);
      std::snprintf(name, sizeof(name), "engine.exec_latency_us.class%d", c);
      exec_latency_us[c] = metrics.GetHistogram(name);
      std::snprintf(name, sizeof(name), "mem.query_peak_bytes.class%d", c);
      mem_peak_by_class[c] = metrics.GetHistogram(name);
    }
  }

  void RecordQueryPeak(uint64_t peak_bytes, int query_class) {
    mem_peak_by_class[query_class]->Record(static_cast<double>(peak_bytes));
    uint64_t prev = engine_peak_bytes.load(std::memory_order_relaxed);
    while (prev < peak_bytes &&
           !engine_peak_bytes.compare_exchange_weak(
               prev, peak_bytes, std::memory_order_relaxed)) {
    }
  }

  void AddProfile(std::shared_ptr<const QueryProfile> profile) {
    std::lock_guard<std::mutex> lock(profiles_mu);
    recent_profiles.push_back(std::move(profile));
    if (recent_profiles.size() > kRecentProfiles) recent_profiles.pop_front();
  }

  PipelineObs MakePipelineObs(uint32_t query_id) {
    PipelineObs obs;
    obs.tracer = &tracer;
    obs.beacons = &beacons;
    obs.morsels = morsels;
    obs.mode_switch_decisions = mode_switches;
    obs.compiles = compiles;
    obs.compile_us = compile_us;
    obs.query_id = query_id;
    return obs;
  }

  /// Declared last: the sampler thread reads `beacons` and bumps
  /// `profiler_samples`, so it must stop (reverse destruction order)
  /// before either goes away. Null when profile_hz is 0.
  std::unique_ptr<ContinuousProfiler> profiler;
};

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCompiled: return "compiled";
    case EngineKind::kVolcano: return "volcano";
    case EngineKind::kVectorized: return "vectorized";
    case EngineKind::kNaiveIr: return "naive-ir";
  }
  AQE_UNREACHABLE("bad EngineKind");
}

struct QueryEngine::Impl {
  const Catalog* catalog;

  // Plan-keyed artifact cache (fingerprint -> bytecode + machine code).
  // Declared before the scheduler so publish tasks that run during
  // shutdown still find it alive.
  ArtifactCache cache;

  // Trace rings + metrics registry. Same lifetime rule as the cache: tasks
  // record events until the scheduler's workers join.
  EngineObs obs;

  // Micro-calibrated cost-model speedups (AQE_CALIBRATE), substituted for
  // QueryRunOptions that leave the cost model at its defaults.
  CostModelParams calibrated;
  bool use_calibrated = false;

  // Admission layer: at most `max_active` queries execute concurrently;
  // excess queries wait in one FIFO queue per class and are released
  // weighted-fair as running queries finish, so a burst cannot pile
  // unbounded task state onto the scheduler and every class gets its share
  // of slots. Each class keeps a virtual admission clock: releasing a
  // query advances its class's clock by estimated_cost / weight, and the
  // most-behind non-empty class is always served next — weighted fair
  // queueing over service time, not query count, so a class of cheap
  // cached queries admits many per heavy cold query. Within a class,
  // release is FIFO except for a bounded cache-aware overtake (see
  // PickFromClassLocked).
  struct WaitingQuery {
    std::unique_ptr<Task> job;
    double cost_ms = 0;        ///< cache-estimated service time
    bool fully_cached = false; ///< every pipeline artifact is resident
    int bypassed = 0;          ///< times a cached waiter overtook this one
  };
  /// A fully-cached waiter may overtake from at most this many queue
  /// positions back, and a cold query at the head may be bypassed at most
  /// this many times — both bounds keep a cold query's extra wait finite
  /// even under a sustained stream of cached arrivals.
  static constexpr size_t kMaxCacheOvertake = 8;

  std::mutex admission_mutex;
  std::deque<WaitingQuery> waiting[kNumTaskClasses];
  double admit_vtime[kNumTaskClasses] = {};
  int active = 0;
  int max_active;

  /// Per-class peak-memory budgets (0 = unlimited). Checked at Submit
  /// against the fingerprint's cached peak estimate and installed as each
  /// admitted query's tracker soft limit.
  std::atomic<uint64_t> class_budget[kNumTaskClasses] = {};

  // Declared last on purpose: its destructor joins the workers, and a
  // finishing query task touches the admission fields above — they must
  // outlive the workers.
  TaskScheduler sched;

  // Declared after `sched` on purpose: the server thread's handlers walk
  // the tracer and metrics, so it must stop before anything else tears
  // down — destruction runs in reverse declaration order. Null unless
  // QueryEngineOptions::stats_port asked for it (and the bind succeeded).
  std::unique_ptr<StatsServer> stats_server;

  // Thread count clamped to the scheduler's worker range: callers pass
  // hardware_concurrency() on big machines, and indices above
  // TaskScheduler::kMaxWorkers are reserved for external controllers.
  Impl(const Catalog* catalog, const QueryEngineOptions& options)
      : catalog(catalog),
        max_active(std::max(2, 2 * options.num_threads)),
        sched(std::min(std::max(1, options.num_threads),
                       TaskScheduler::kMaxWorkers)) {
    if (CostModelCalibrationRequested()) {
      calibrated = CalibratedCostModelParams();
      use_calibrated = true;
    }
    // Evictions feed the regression sentinel so a post-eviction slowdown
    // of the same fingerprint can name its cause.
    cache.set_eviction_listener(
        [this](uint64_t key) { obs.sentinel.MarkEvicted(key); });
    if (options.profile_hz > 0) {
      obs.profiler = std::make_unique<ContinuousProfiler>(
          &obs.beacons, options.profile_hz, obs.profiler_samples);
    }
    if (options.stats_port >= 0) {
      StatsServer::Handlers handlers;
      handlers.metrics_text = [this] { return PrometheusText(BuildSnapshot()); };
      handlers.trace_json = [this] {
        return ChromeTraceJson(obs.tracer.Snapshot());
      };
      handlers.profiles_json = [this] { return ProfilesJson(); };
      handlers.profile_text = [this] {
        return obs.profiler != nullptr ? obs.profiler->CollapsedStacks()
                                       : std::string();
      };
      stats_server =
          std::make_unique<StatsServer>(options.stats_port, std::move(handlers));
      if (!stats_server->ok()) stats_server.reset();
    }
  }

  MetricsSnapshot BuildSnapshot() const;
  std::string ProfilesJson() const;

  void Admit(std::unique_ptr<Task> job, int cls, double cost_ms,
             bool fully_cached) {
    std::vector<std::unique_ptr<Task>> ready;
    {
      std::lock_guard<std::mutex> lock(admission_mutex);
      std::deque<WaitingQuery>& queue = waiting[static_cast<size_t>(cls)];
      if (queue.empty()) {
        // The clocks only mean anything while some class is backlogged: a
        // class served without contention still gets charged, and that
        // banked *debt* would lock it out when another class later becomes
        // backlogged. With no waiters anywhere, restart all clocks.
        bool any_waiting = false;
        for (int c = 0; c < kNumTaskClasses; ++c) {
          if (!waiting[c].empty()) {
            any_waiting = true;
            break;
          }
        }
        if (!any_waiting) {
          for (int c = 0; c < kNumTaskClasses; ++c) admit_vtime[c] = 0;
        }
        // An idle class's clock stood still; clamp it forward so it cannot
        // return with banked credit and starve the others.
        double min_active_vtime = -1;
        for (int c = 0; c < kNumTaskClasses; ++c) {
          if (c == cls || waiting[c].empty()) continue;
          if (min_active_vtime < 0 || admit_vtime[c] < min_active_vtime) {
            min_active_vtime = admit_vtime[c];
          }
        }
        if (min_active_vtime > admit_vtime[cls]) {
          admit_vtime[cls] = min_active_vtime;
        }
      }
      queue.push_back({std::move(job), cost_ms, fully_cached, 0});
      DrainWaitingLocked(&ready);
    }
    for (auto& task : ready) sched.Submit(std::move(task));
  }

  /// Called by a finishing query task: hands its admission slot to the
  /// most-behind class's next waiting query, if any.
  void OnQueryFinished() {
    std::vector<std::unique_ptr<Task>> ready;
    {
      std::lock_guard<std::mutex> lock(admission_mutex);
      --active;
      DrainWaitingLocked(&ready);
    }
    for (auto& task : ready) sched.Submit(std::move(task));
  }

  void SetMaxActive(int max_queries) {
    std::vector<std::unique_ptr<Task>> ready;
    {
      std::lock_guard<std::mutex> lock(admission_mutex);
      max_active = max_queries;
      // A raised cap releases already-waiting queries immediately.
      DrainWaitingLocked(&ready);
    }
    for (auto& task : ready) sched.Submit(std::move(task));
  }

  /// Pops the next query of class `cls`: the oldest waiter, unless it is
  /// cold and a fully-cached one sits within the first kMaxCacheOvertake
  /// positions behind it — that one overtakes (it will finish in a
  /// fraction of the time). A head that has already been bypassed
  /// kMaxCacheOvertake times is released unconditionally, so a sustained
  /// stream of cached arrivals cannot starve a cold query.
  WaitingQuery PickFromClassLocked(int cls) {
    std::deque<WaitingQuery>& queue = waiting[static_cast<size_t>(cls)];
    size_t pick = 0;
    if (!queue.front().fully_cached &&
        queue.front().bypassed < static_cast<int>(kMaxCacheOvertake)) {
      const size_t horizon = std::min(queue.size(), kMaxCacheOvertake + 1);
      for (size_t i = 1; i < horizon; ++i) {
        if (queue[i].fully_cached) {
          pick = i;
          ++queue.front().bypassed;
          break;
        }
      }
    }
    WaitingQuery picked = std::move(queue[pick]);
    queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick));
    return picked;
  }

  /// Moves waiting queries into `ready` (weighted-fair across classes)
  /// while slots exist. Caller holds admission_mutex and submits outside
  /// the lock.
  void DrainWaitingLocked(std::vector<std::unique_ptr<Task>>* ready) {
    while (active < max_active) {
      int cls = -1;
      for (int c = 0; c < kNumTaskClasses; ++c) {
        if (waiting[c].empty()) continue;
        if (cls < 0 || admit_vtime[c] < admit_vtime[cls]) cls = c;
      }
      if (cls < 0) return;  // nothing waiting
      WaitingQuery picked = PickFromClassLocked(cls);
      admit_vtime[cls] +=
          picked.cost_ms / static_cast<double>(sched.class_weight(cls));
      ++active;
      ready->push_back(std::move(picked.job));
    }
  }
};

namespace {

/// One query in flight: a task that executes one bounded slice at a time —
/// an engine step, a pipeline-setup (bind + cache lookup + translation), or
/// one controller morsel of the embedded resumable PipelineRun — and yields
/// between slices, so concurrent queries sharing a worker interleave at
/// morsel granularity even inside a pipeline. All state lives in this
/// object, not on any thread: a yielded query can resume on whichever
/// worker picks it up (steals included), mid-pipeline.
class QueryJob : public Task {
 public:
  QueryJob(const Catalog* catalog, TaskScheduler* sched, ArtifactCache* cache,
           const CostModelParams* calibrated, EngineObs* obs,
           uint32_t query_id, const QueryProgram& program,
           const QueryRunOptions& options, std::function<void()> on_finished)
      : sched_(sched),
        cache_(cache),
        obs_(obs),
        query_id_(query_id),
        submit_nanos_(MonotonicNanos()),
        program_(&program),
        options_(options),
        ctx_(program.MakeContext(catalog)),
        on_finished_(std::move(on_finished)) {
    // Cost-model micro-calibration (AQE_CALIBRATE): substitute measured
    // speedups when the caller left the cost model at its defaults.
    if (calibrated != nullptr && options_.cost_model == CostModelParams{}) {
      options_.cost_model = *calibrated;
    }
    // Every engine query is memory-accounted: the tracker rides the context
    // into the agg sets / output buffers now, and into join tables as
    // engine steps create them (they read ctx->memory themselves).
    memory_ = std::make_shared<QueryMemoryTracker>();
    ctx_->AttachMemoryTracker(memory_);
    if (options_.engine == EngineKind::kCompiled &&
        options_.use_artifact_cache && !program.pipelines().empty()) {
      // Fingerprint on the submitting thread: cheap (a hash walk over the
      // plan), and it makes the entry visible before any stage runs.
      fingerprint_ = FingerprintProgram(program);
      cache_key_ = ArtifactCacheKey(fingerprint_, options_.translator);
      entry_ = cache_->Intern(cache_key_, program.pipelines().size(),
                              program.name());
      if (entry_ != nullptr) {
        admission_ = cache_->EstimateAdmission(*entry_, fingerprint_,
                                               options_.strategy);
      }
    }
  }

  std::future<QueryRunResult> GetFuture() { return promise_.get_future(); }

  /// Cache-estimated service time, residency and peak footprint, for
  /// cache-aware admission and the class byte-budget check. Computed on the
  /// submitting thread from the interned entry (cold defaults without one).
  const AdmissionEstimate& admission() const { return admission_; }
  std::shared_ptr<QueryMemoryTracker> tracker() const { return memory_; }

  /// Installs the class budget as the tracker's soft limit (0 = none);
  /// runtime growth past it fails the query at the next slice boundary.
  void set_memory_budget(uint64_t bytes) { memory_->set_soft_limit(bytes); }

  /// Admission-time rejection: fails the future with the typed error
  /// without ever admitting the job (the caller drops it; on_finished_
  /// must not run — no admission slot was taken).
  void FailAdmission(uint64_t budget_bytes) {
    promise_.set_exception(std::make_exception_ptr(MemoryBudgetExceeded(
        scheduling_class(), budget_bytes, admission_.peak_bytes,
        /*at_admission=*/true)));
  }

  /// One bounded slice, bracketed by trace events. Client threads never
  /// touch the single-producer rings, so the admission wait is recorded
  /// retroactively by whichever worker runs the first slice (the span
  /// still starts at submit time).
  Status Run(int worker) override {
    const int64_t t0 = MonotonicNanos();
    // Publish the slice beacon for the continuous profiler; morsel and
    // compile sites inside the slice overwrite it with richer detail and
    // restore it on their way out.
    WorkerBeacon* beacon = obs_->beacons.lane(worker);
    PublishBeacon(beacon, query_id_, static_cast<uint16_t>(stage_index_),
                  /*mode=*/0, BeaconActivity::kSlice, 0);
    if (!started_) {
      started_ = true;
      first_slice_nanos_ = t0;
      result_.queue_wait_seconds = total_timer_.ElapsedSeconds();
      const int cls = scheduling_class();
      obs_->queue_wait_us[cls]->Record(result_.queue_wait_seconds * 1e6);
      TraceEvent ev;
      ev.start_nanos = submit_nanos_;
      ev.end_nanos = t0;
      ev.d0 = admission_.cost_ms;
      ev.query_id = query_id_;
      ev.kind = TraceEventKind::kAdmissionWait;
      ev.detail = static_cast<uint8_t>(cls);
      obs_->tracer.Record(worker, ev);
    }
    const Status status = RunSlice(worker);
    ClearBeacon(beacon);
    const int64_t t1 = MonotonicNanos();
    TraceEvent ev;
    ev.start_nanos = t0;
    ev.end_nanos = t1;
    ev.payload = stage_index_;
    ev.query_id = query_id_;
    ev.kind = TraceEventKind::kTaskSlice;
    ev.detail = static_cast<uint8_t>(scheduling_class());
    obs_->tracer.Record(worker, ev);
    if (status == Status::kDone) {
      TraceEvent done;
      done.start_nanos = first_slice_nanos_;
      done.end_nanos = t1;
      done.payload = done_rows_;
      done.d0 = done_queue_wait_seconds_;
      done.d1 = done_total_seconds_;
      done.query_id = query_id_;
      done.kind = TraceEventKind::kQueryDone;
      done.detail = static_cast<uint8_t>(scheduling_class());
      obs_->tracer.Record(worker, done);
    }
    return status;
  }

 private:
  /// Per-pipeline state that must survive suspension: the worker reads
  /// every runtime address out of the packed binding array, the handle is
  /// flipped by compile tasks, and the PipelineRun checkpoints the
  /// controller between morsels. Destroyed only after the run quiesced
  /// (PipelineRun's drain phase / destructor, invariant 3 in
  /// adaptive/controller.h) — `run` is declared last so it goes first.
  struct ActivePipeline {
    ActivePipeline(WorkerFn fn, const void* extra) : handle(fn, extra) {}

    size_t p = 0;  ///< pipeline index
    PipelineReport report;
    PipelineBindings bindings;
    std::vector<uint64_t> binding_values;
    std::vector<uint64_t> constants;  ///< this run's constant slice
    std::shared_ptr<const BcProgram> bytecode;
    std::shared_ptr<CachedCode> seed_code;  ///< eviction-safe seeded code
    FunctionHandle handle;
    std::unique_ptr<PipelineRun> run;
  };

  /// Runtime budget enforcement: when the tracker latched over-budget
  /// (Charge never throws under VM/JIT frames; the flag is checked here,
  /// at slice boundaries, where unwinding is safe), fail the future with
  /// the typed error and release the admission slot. Returns true when the
  /// query was failed. An active PipelineRun is destroyed through its
  /// abandoned-run path (drain the domain, wait out in-flight helpers),
  /// so no task touches freed state.
  bool FailIfOverBudget() {
    // Slice boundaries are the tracker's quiesce points: fold the
    // thread-slot residues so the budget latch and the peak high-water see
    // every byte charged since the last boundary, however small.
    memory_->FoldResidues();
    if (!memory_->over_budget()) return false;
    obs_->budget_rej_runtime->Add();
    const uint64_t budget = memory_->soft_limit();
    const uint64_t current = memory_->current_bytes();
    // Admission feedback even though the run never completes: the
    // truncated run's footprint and service time are lower bounds, folded
    // so the next submission of this plan is rejected at admission instead
    // of executing to the failure point again.
    if (entry_ != nullptr) {
      cache_->RecordQueryRun(*entry_, ServiceMs(total_timer_.ElapsedSeconds()),
                             memory_->peak_bytes(), /*truncated=*/true);
    }
    active_.reset();
    memory_->Release(active_charged_bytes_);
    active_charged_bytes_ = 0;
    if (obs_->profiler != nullptr) {
      obs_->profiler->RetireQuery(query_id_, program_->name());
    }
    promise_.set_exception(std::make_exception_ptr(MemoryBudgetExceeded(
        scheduling_class(), budget, current, /*at_admission=*/false)));
    on_finished_();
    return true;
  }

  /// The pre-instrumentation slice body: one engine step, pipeline setup,
  /// or controller checkpoint of the embedded PipelineRun.
  Status RunSlice(int worker) {
    if (FailIfOverBudget()) return Status::kDone;
    if (active_ != nullptr) {
      // Mid-pipeline: one controller checkpoint per slice.
      if (active_->run->Step() != Task::Status::kDone) return Status::kYield;
      FinishCompiledPipeline();
      active_.reset();
      if (++stage_index_ < program_->stages().size()) return Status::kYield;
    } else if (stage_index_ < program_->stages().size()) {
      // The size check comes first: a QueryProgram with no stages at all
      // must still produce an (empty) result.
      RunStage(program_->stages()[stage_index_], worker);
      if (active_ != nullptr) return Status::kYield;  // pipeline started
      if (++stage_index_ < program_->stages().size()) return Status::kYield;
    }
    // The last stage may have grown past the budget inside its own slice.
    if (FailIfOverBudget()) return Status::kDone;
    result_.rows = std::move(ctx_->result);
    result_.total_seconds = total_timer_.ElapsedSeconds();
    result_.peak_memory_bytes = memory_->peak_bytes();
    obs_->RecordQueryPeak(result_.peak_memory_bytes, scheduling_class());
    // Retire this query's live profiler samples into the per-plan
    // aggregate — every query, profiled or not, so CollapsedStacks and
    // /profile cover the whole workload.
    uint64_t cpu_samples = 0;
    if (obs_->profiler != nullptr) {
      cpu_samples = obs_->profiler->RetireQuery(query_id_, program_->name());
    }
    RecordServiceTime(worker);
    if (options_.collect_profile) {
      // Fold this query's trace events into a structured profile before the
      // promise resolves, so the client's future carries it. The engine
      // keeps the last few for the stats server's /profiles endpoint.
      auto profile = std::make_shared<QueryProfile>(BuildQueryProfile(
          obs_->tracer.Snapshot(), result_, query_id_, program_->name()));
      profile->cpu_samples = cpu_samples;
      profile->peak_memory_bytes = result_.peak_memory_bytes;
      result_.profile = profile;
      obs_->AddProfile(std::move(profile));
    }
    // The caller's completion events outlive the moved-from result.
    done_rows_ = result_.rows.size();
    done_queue_wait_seconds_ = result_.queue_wait_seconds;
    done_total_seconds_ = result_.total_seconds;
    // Completion metrics land before the promise resolves, so a client
    // that saw its future ready observes them in the very next snapshot.
    obs_->exec_latency_us[scheduling_class()]->Record(
        std::max(0.0, done_total_seconds_ - done_queue_wait_seconds_) * 1e6);
    obs_->queries_completed->Add();
    promise_.set_value(std::move(result_));
    on_finished_();
    return Status::kDone;
  }

  /// Service time of a run that ended `total_seconds` after Submit.
  double ServiceMs(double total_seconds) const {
    return std::max(0.0, (total_seconds - result_.queue_wait_seconds) * 1e3);
  }

  void RecordServiceTime(int worker);
  void RunStage(const QueryProgram::Stage& stage, int worker);
  void StartCompiledPipeline(const QueryProgram::Stage& stage,
                             const PipelineSpec& spec,
                             PipelineBindings bindings,
                             PipelineReport report, int worker);
  WorkerFn CompilePipeline(const PipelineSpec& spec, ActivePipeline* ap,
                           ExecMode mode);
  std::shared_ptr<const ScanDomain> PruneScan(
      const PipelineSpec& spec, size_t p,
      const std::vector<uint64_t>& constants, PipelineReport* report,
      int worker);
  void FinishCompiledPipeline();

  TaskScheduler* sched_;
  ArtifactCache* cache_;
  EngineObs* obs_;
  uint32_t query_id_;
  int64_t submit_nanos_;
  int64_t first_slice_nanos_ = 0;
  uint64_t done_rows_ = 0;
  double done_queue_wait_seconds_ = 0;
  double done_total_seconds_ = 0;
  const QueryProgram* program_;
  QueryRunOptions options_;
  /// Per-query memory accounting; shared with ctx_ and every runtime
  /// structure created on the query's behalf. Declared before ctx_ so it
  /// is destroyed after the context: charged structures hold raw
  /// tracker pointers and call Release() from their destructors.
  std::shared_ptr<QueryMemoryTracker> memory_;
  std::unique_ptr<QueryContext> ctx_;
  PlanFingerprint fingerprint_;
  uint64_t cache_key_ = 0;             ///< ArtifactCacheKey of fingerprint_
  std::shared_ptr<CacheEntry> entry_;  ///< null when the cache is bypassed
  /// Keeps compiled code alive until the query finishes; pushed from
  /// compile tasks on any worker. Shared with the cache, so LRU eviction
  /// mid-query cannot free code this query still executes.
  std::vector<std::shared_ptr<CachedCode>> keepalive_;
  std::mutex keepalive_mutex_;
  QueryRunResult result_;
  size_t stage_index_ = 0;
  bool started_ = false;
  AdmissionEstimate admission_;
  /// Tracker bytes charged for the active pipeline's binding array and
  /// private bytecode; released when the pipeline finishes or is abandoned.
  uint64_t active_charged_bytes_ = 0;
  Timer total_timer_;  ///< from Submit — total_seconds includes queue wait
  std::promise<QueryRunResult> promise_;
  std::function<void()> on_finished_;
  /// Declared after ctx_: destroyed first, so a run abandoned at shutdown
  /// quiesces while the context its bindings point into is still alive.
  std::unique_ptr<ActivePipeline> active_;
};

/// Admission cost feedback (the plan's EWMAs, see
/// ArtifactCache::RecordQueryRun). The same sample feeds the regression
/// sentinel, which flags the run (counter + kAnomaly trace event on this
/// worker's lane) when it deviates from the fingerprint's baseline.
void QueryJob::RecordServiceTime(int worker) {
  if (entry_ == nullptr) return;
  const double service_ms = ServiceMs(result_.total_seconds);
  cache_->RecordQueryRun(*entry_, service_ms, result_.peak_memory_bytes,
                         /*truncated=*/false);

  RegressionTracker::Observation sample;
  sample.fingerprint = cache_key_;
  sample.query_id = query_id_;
  sample.service_ms = service_ms;
  sample.queue_wait_ms = result_.queue_wait_seconds * 1e3;
  sample.peak_bytes = result_.peak_memory_bytes;
  for (const PipelineReport& report : result_.pipelines) {
    sample.final_mode = std::max(sample.final_mode, report.final_mode);
  }
  sample.plan_name = program_->name();
  AnomalyRecord anomaly;
  if (obs_->sentinel.Observe(sample, &anomaly)) {
    obs_->anomalies->Add();
    obs_->anomalies_by_cause[static_cast<int>(anomaly.cause)]->Add();
    TraceEvent ev;
    ev.start_nanos = anomaly.nanos;
    ev.end_nanos = anomaly.nanos;
    ev.payload = anomaly.fingerprint;
    ev.d0 = anomaly.expected_ms;
    ev.d1 = anomaly.observed_ms;
    ev.d2 = anomaly.queue_wait_ms;
    ev.query_id = query_id_;
    ev.kind = TraceEventKind::kAnomaly;
    ev.detail = static_cast<uint8_t>(anomaly.cause);
    obs_->tracer.Record(worker, ev);
  }
}

void QueryJob::RunStage(const QueryProgram::Stage& stage, int worker) {
  const QueryProgram& program = *program_;
  const QueryRunOptions& options = options_;
  const RuntimeRegistry& registry = RuntimeRegistry::Global();

  if (stage.pipeline < 0) {
    Timer timer;
    stage.step(ctx_.get());
    const double seconds = timer.ElapsedSeconds();
    result_.step_seconds_total += seconds;
    result_.exec_seconds_total += seconds;
    return;
  }
  const PipelineSpec& spec =
      program.pipelines()[static_cast<size_t>(stage.pipeline)];
  PipelineReport report;
  report.name = spec.name;
  report.pipeline_index = static_cast<uint32_t>(stage.pipeline);
  report.tuples = PipelineCardinality(program, spec, *ctx_);

  PipelineBindings bindings = BindPipeline(program, spec, *ctx_);
  if (options.engine == EngineKind::kCompiled) {
    StartCompiledPipeline(stage, spec, std::move(bindings), std::move(report),
                          worker);
    return;
  }

  // The baselines run the whole pipeline inside this slice.
  Timer timer;
  if (options.engine == EngineKind::kVolcano) {
    RunPipelineVolcano(program, spec, ctx_.get());
  } else if (options.engine == EngineKind::kVectorized) {
    RunPipelineVectorized(program, spec, ctx_.get());
  } else {
    // Fig 2's "LLVM IR" mode: interpret the IR objects directly,
    // single-threaded, morsel by morsel.
    AQE_CHECK(options.engine == EngineKind::kNaiveIr);
    ValidatePipelineBindings(spec, bindings);
    std::vector<uint64_t> binding_values = bindings.Pack();
    GeneratedPipeline generated = GeneratePipeline(spec, bindings);
    report.instructions = generated.instructions;
    report.codegen_millis = generated.codegen_millis;
    result_.codegen_millis_total += generated.codegen_millis;
    const llvm::Function* fn = generated.mod->module().getFunction("worker");
    timer.Reset();  // execution only
    MorselQueue queue(report.tuples);
    MorselBatch batch;
    while (queue.Next(&batch)) {
      for (int i = 0; i < batch.count; ++i) {
        uint64_t args[4] = {reinterpret_cast<uint64_t>(binding_values.data()),
                            batch.ranges[i].begin, batch.ranges[i].end, 0};
        NaiveIrInterpret(*fn, args, 4, registry);
      }
    }
  }
  report.exec_seconds = timer.ElapsedSeconds();
  report.exec_only_seconds = report.exec_seconds;
  result_.exec_seconds_total += report.exec_only_seconds;
  result_.pipelines.push_back(std::move(report));
}

/// Sets up one compiled pipeline and hands it to a resumable PipelineRun:
/// bind, artifact-cache lookup, (on miss) codegen + translation + publish,
/// scan pruning, handle seeding. Everything the run touches across
/// suspensions moves into the ActivePipeline member; the caller's Run()
/// loop then steps the pipeline one morsel per slice.
void QueryJob::StartCompiledPipeline(const QueryProgram::Stage& stage,
                                     const PipelineSpec& spec,
                                     PipelineBindings bindings,
                                     PipelineReport report, int worker) {
  const QueryRunOptions& options = options_;
  const RuntimeRegistry& registry = RuntimeRegistry::Global();
  const auto p = static_cast<size_t>(stage.pipeline);

  // Cache outcomes below emit instant events on this worker's lane.
  const auto cache_instant = [&](TraceEventKind kind, uint64_t payload) {
    TraceEvent ev;
    ev.start_nanos = MonotonicNanos();
    ev.end_nanos = ev.start_nanos;
    ev.payload = payload;
    ev.query_id = query_id_;
    ev.pipeline_id = static_cast<uint16_t>(p);
    ev.kind = kind;
    obs_->tracer.Record(worker, ev);
  };

  // --- bind ---------------------------------------------------------------
  // The worker reads every runtime address out of this packed binding
  // array (its `state` argument); it must outlive the pipeline run.
  ValidatePipelineBindings(spec, bindings);
  std::vector<uint64_t> binding_values = bindings.Pack();
  const bool interprets = StrategyInterprets(options.strategy);

  // --- artifact-cache lookup ----------------------------------------------
  std::vector<uint64_t> constants;
  PipelineLookup hit;
  if (entry_ != nullptr) {
    constants = fingerprint_.PipelineConstants(p);
    hit = cache_->Lookup(*entry_, p, constants, bindings.column_types,
                         options.strategy);
    if (hit.bytecode != nullptr) {
      cache_instant(TraceEventKind::kCacheHit, /*payload=*/0);
    } else if (interprets) {
      cache_instant(TraceEventKind::kCacheMiss, /*payload=*/0);
    }
  }
  std::shared_ptr<const BcProgram> bytecode = hit.bytecode;
  report.artifact_cache_hit = bytecode != nullptr || hit.seed != nullptr;

  // --- code generation / translation (cache misses only) ------------------
  uint64_t instructions = hit.instructions;
  double call_fraction = hit.runtime_call_fraction;
  const bool translate = interprets && bytecode == nullptr;
  if (translate || (!interprets && hit.seed == nullptr)) {
    GeneratedPipeline generated = GeneratePipeline(spec, bindings);
    instructions = generated.instructions;
    call_fraction = RuntimeCallFraction(generated.loop_instructions,
                                        generated.loop_calls,
                                        options.cost_model);
    report.codegen_millis = generated.codegen_millis;
    result_.codegen_millis_total += generated.codegen_millis;
    if (translate) {
      Timer timer;
      auto fresh = std::make_shared<const BcProgram>(TranslateToBytecode(
          *generated.mod->module().getFunction("worker"), registry,
          options.translator));
      report.translate_millis = timer.ElapsedMillis();
      result_.translate_millis_total += report.translate_millis;
      // The (codegen + translation sized) patch-table build is skipped
      // when the publish would be discarded — e.g. a variant whose pinned
      // constants mismatch re-translates every run and must not also pay
      // the sentinel pass every run.
      if (hit.bytecode_publishable &&
          cache_->PublishBytecode(
              *entry_, p,
              {constants, bindings.column_types, instructions, call_fraction},
              fresh,
              BuildConstantPatchTable(
                  *fresh, spec, bindings, registry, options.translator,
                  fingerprint_.constants,
                  fingerprint_.pipeline_constants[p].first,
                  fingerprint_.pipeline_constants[p].second))) {
        cache_instant(TraceEventKind::kCachePublish, /*payload=*/0);
      }
      bytecode = std::move(fresh);
    }
  }
  report.instructions = instructions;
  if (bytecode != nullptr) {
    report.register_file_bytes = bytecode->register_file_size;
  }

  std::shared_ptr<const ScanDomain> scan_domain =
      PruneScan(spec, p, constants, &report, worker);

  // --- seed -----------------------------------------------------------------
  auto ap = std::make_unique<ActivePipeline>(
      bytecode != nullptr ? VmWorkerFor(options.vm_dispatch)
                          : &NeverCalledWorker,
      static_cast<const void*>(bytecode.get()));
  ap->p = p;
  ap->bindings = std::move(bindings);
  ap->binding_values = std::move(binding_values);
  ap->constants = std::move(constants);
  // Per-run allocations the context's trackers can't see: the packed
  // binding array and any private bytecode (patched constants or a fresh
  // translation). A shared cache-resident program is the cache's
  // footprint, not this query's.
  uint64_t run_bytes = ap->binding_values.size() * sizeof(uint64_t);
  if (hit.patched || translate) run_bytes += BcProgramBytes(*bytecode);
  ap->bytecode = std::move(bytecode);
  memory_->Charge(run_bytes);
  active_charged_bytes_ = run_bytes;
  if (hit.seed != nullptr) {
    ap->handle.SetCompiled(hit.seed->fn, hit.seed_mode);
    ap->seed_code = std::move(hit.seed);
    cache_instant(TraceEventKind::kCacheHit, /*payload=*/1);
  }
  report.initial_mode = ap->handle.mode();
  ap->report = std::move(report);

  PipelineTask task;
  task.handle = &ap->handle;
  task.state = ap->binding_values.data();
  task.total_tuples = ap->report.tuples;
  task.function_instructions = instructions;
  task.runtime_call_fraction = call_fraction;
  task.pipeline_id = stage.pipeline;
  task.scheduling_class = options.query_class;
  task.obs = obs_->MakePipelineObs(query_id_);
  // Pruned scans hand the run a restricted morsel domain; total_tuples
  // (already report.tuples = selected rows) must match its selected count.
  task.domain = std::move(scan_domain);
  // `spec` lives in the (caller-owned) program, `raw_ap` in this job; both
  // outlive the run (PipelineRun invariant 3).
  ActivePipeline* raw_ap = ap.get();
  task.compile = [this, raw_ap, &spec](ExecMode mode) {
    return CompilePipeline(spec, raw_ap, mode);
  };
  ap->run = std::make_unique<PipelineRun>(
      sched_, options.strategy, options.cost_model, task,
      options.single_threaded, options.adaptive_first_eval_seconds);
  active_ = std::move(ap);
}

/// PipelineTask::compile for `ap`: JIT-compiles the pipeline in `mode` and
/// writes the code back into the plan's entry off the critical path.
WorkerFn QueryJob::CompilePipeline(const PipelineSpec& spec,
                                   ActivePipeline* ap, ExecMode mode) {
  // Regenerate IR (codegen is ~100x cheaper than machine-code
  // generation, Fig 1) so each compilation owns its LLVMContext —
  // required because adaptive compilation runs on a worker thread.
  GeneratedPipeline fresh = GeneratePipeline(spec, ap->bindings);
  ArtifactOrigin origin{ap->constants, ap->bindings.column_types,
                        fresh.instructions,
                        RuntimeCallFraction(fresh.loop_instructions,
                                            fresh.loop_calls,
                                            options_.cost_model)};
  auto compiled =
      JitCompile(std::move(*fresh.mod),
                 mode == ExecMode::kOptimized ? JitMode::kOptimized
                                              : JitMode::kUnoptimized,
                 RuntimeRegistry::Global());
  auto* fn = reinterpret_cast<WorkerFn>(compiled->Lookup("worker"));
  AQE_CHECK(fn != nullptr);
  auto code = std::make_shared<CachedCode>();
  code->approx_bytes = compiled->approx_code_bytes();
  code->module = std::move(compiled);
  code->fn = fn;
  {
    std::lock_guard<std::mutex> lock(keepalive_mutex_);
    keepalive_.push_back(code);
  }
  if (entry_ == nullptr) return fn;
  // Write-back happens off the critical path, as a low-priority task any
  // worker may claim. The entry and code are held by shared_ptr, so a
  // publish racing engine shutdown or LRU eviction touches only live
  // memory.
  sched_->Submit(
      MakeClosureTask([cache = cache_, entry = entry_, p = ap->p, mode,
                       code = std::move(code), origin = std::move(origin),
                       tracer = &obs_->tracer,
                       query_id = query_id_](int worker) {
        if (!cache->PublishCode(*entry, p, origin, mode, code)) return;
        TraceEvent ev;
        ev.start_nanos = MonotonicNanos();
        ev.end_nanos = ev.start_nanos;
        ev.payload = 1;  // machine code (bytecode publishes happen inline)
        ev.query_id = query_id;
        ev.pipeline_id = static_cast<uint16_t>(p);
        ev.kind = TraceEventKind::kCachePublish;
        ev.detail = static_cast<uint8_t>(mode);
        tracer->Record(worker, ev);
      }),
      TaskPriority::kLow);
  return fn;
}

/// Scan pruning, the index access-path decision (src/index/): runs against
/// the source table's immutable indexes and returns the domain that
/// restricts which morsels the PipelineRun ever schedules (null = full
/// scan). The decision is cached per (constants, literals hash), so warm
/// runs skip the analysis entirely.
std::shared_ptr<const ScanDomain> QueryJob::PruneScan(
    const PipelineSpec& spec, size_t p, const std::vector<uint64_t>& constants,
    PipelineReport* report, int worker) {
  if (!options_.scan_pruning) return nullptr;
  const Table* source = program_->ResolveTable(spec.source_table, *ctx_);
  if (source == nullptr || source->indexes() == nullptr) return nullptr;
  std::optional<PruningDecision> cached;
  if (entry_ != nullptr) {
    cached = cache_->FindPruning(*entry_, p, constants,
                                 fingerprint_.literals_hash);
  }
  PruningDecision decision;
  if (cached.has_value()) {
    decision = std::move(*cached);
    decision.stats.analysis_seconds = 0;  // no analysis this run
    report->pruning_cache_hit = true;
  } else {
    ScanPruning pruning = AnalyzeScanPruning(spec, *source);
    decision = {std::move(pruning.domain), pruning.stats};
    if (entry_ != nullptr) {
      cache_->StorePruning(*entry_, p, constants, fingerprint_.literals_hash,
                           decision);
    }
  }
  report->pruning = decision.stats;
  const PruningStats& stats = report->pruning;
  if (!stats.analyzed) return decision.domain;
  if (entry_ != nullptr) {
    (cached.has_value() ? obs_->prune_cache_hits : obs_->prune_cache_misses)
        ->Add();
  }
  obs_->rows_selected->Add(stats.selected_rows);
  obs_->posting_entries->Add(stats.posting_entries);
  if (decision.domain != nullptr) {
    obs_->pruned_pipelines->Add();
    obs_->rows_pruned->Add(stats.table_rows - stats.selected_rows);
    obs_->zone_blocks_pruned->Add(stats.zone_blocks_pruned);
    // The scheduled-row count every downstream consumer reasons over
    // (§III-C extrapolation, observed morsel stats, EXPLAIN ANALYZE).
    report->tuples = stats.selected_rows;
  }
  TraceEvent ev;
  ev.start_nanos = MonotonicNanos();
  ev.end_nanos = ev.start_nanos;
  ev.payload = stats.selected_rows;
  ev.payload2 = stats.table_rows;
  ev.d0 = stats.selected_fraction();
  ev.d1 = stats.analysis_seconds;
  ev.d2 = static_cast<double>(stats.posting_entries);
  ev.query_id = query_id_;
  ev.pipeline_id = static_cast<uint16_t>(p);
  ev.kind = TraceEventKind::kScanPrune;
  ev.detail = static_cast<uint8_t>(stats.primary_path);
  obs_->tracer.Record(worker, ev);
  return decision.domain;
}

/// Post-run accounting, after the embedded PipelineRun reported kDone.
void QueryJob::FinishCompiledPipeline() {
  memory_->Release(active_charged_bytes_);
  active_charged_bytes_ = 0;
  ActivePipeline& ap = *active_;
  PipelineReport report = std::move(ap.report);
  PipelineRunStats stats = ap.run->TakeStats();
  report.exec_seconds = stats.total_seconds;
  report.exec_only_seconds =
      stats.total_seconds - stats.blocking_compile_seconds;
  result_.exec_seconds_total += report.exec_only_seconds;
  report.final_mode = stats.final_mode;
  report.compiles = stats.compiles;
  report.mode_switches = std::move(stats.mode_switches);
  for (const auto& [mode, seconds] : stats.compiles) {
    result_.compile_millis_total += seconds * 1e3;
  }

  if (entry_ != nullptr) {
    cache_->RecordPipelineRun(*entry_, ap.p, stats.final_mode, report.tuples,
                              report.exec_only_seconds);
  }
  result_.pipelines.push_back(std::move(report));
}

}  // namespace

QueryEngine::QueryEngine(const Catalog* catalog, int num_threads)
    : QueryEngine(catalog, QueryEngineOptions{num_threads}) {}

QueryEngine::QueryEngine(const Catalog* catalog,
                         const QueryEngineOptions& options)
    : impl_(std::make_unique<Impl>(catalog, options)) {}

QueryEngine::~QueryEngine() = default;

int QueryEngine::stats_port() const {
  return impl_->stats_server != nullptr ? impl_->stats_server->port() : -1;
}

int QueryEngine::num_threads() const { return impl_->sched.num_workers(); }

void QueryEngine::set_max_concurrent_queries(int max_queries) {
  AQE_CHECK(max_queries >= 1);
  impl_->SetMaxActive(max_queries);
}

void QueryEngine::set_class_weight(int query_class, int weight) {
  // One weight drives both layers: admission release order and the
  // scheduler's per-class slice shares.
  impl_->sched.set_class_weight(query_class, weight);
}

void QueryEngine::set_class_memory_budget(int query_class, uint64_t bytes) {
  AQE_CHECK(query_class >= 0 && query_class < kNumTaskClasses);
  impl_->class_budget[query_class].store(bytes, std::memory_order_relaxed);
}

std::string QueryEngine::CollapsedStacks() const {
  return impl_->obs.profiler != nullptr ? impl_->obs.profiler->CollapsedStacks()
                                        : std::string();
}

std::future<QueryRunResult> QueryEngine::Submit(
    const QueryProgram& program, const QueryRunOptions& options) {
  Impl* impl = impl_.get();
  const uint32_t query_id =
      impl->obs.next_query_id.fetch_add(1, std::memory_order_relaxed);
  impl->obs.queries_submitted->Add();
  auto job = std::make_unique<QueryJob>(
      impl->catalog, &impl->sched, &impl->cache,
      impl->use_calibrated ? &impl->calibrated : nullptr, &impl->obs,
      query_id, program, options, [impl] { impl->OnQueryFinished(); });
  std::future<QueryRunResult> future = job->GetFuture();
  const AdmissionEstimate admission = job->admission();
  int cls = options.query_class;
  if (cls < 0) cls = 0;
  if (cls >= kNumTaskClasses) cls = kNumTaskClasses - 1;
  job->set_scheduling_class(cls);
  // Per-class memory budget, checked before the query ever queues: a
  // fingerprint whose cached peak estimate exceeds the budget fails with
  // the typed error here — it never takes an admission slot, so other
  // classes (and this class's in-budget plans) are unaffected.
  const uint64_t budget = impl->class_budget[cls].load(std::memory_order_relaxed);
  if (budget > 0 && admission.peak_bytes > budget) {
    impl->obs.budget_rej_admission->Add();
    job->FailAdmission(budget);
    return future;
  }
  job->set_memory_budget(budget);
  {
    // Register the tracker for the mem.current_bytes gauge; prune expired
    // slots of finished queries while the lock is held anyway.
    std::lock_guard<std::mutex> lock(impl->obs.trackers_mu);
    auto& live = impl->obs.live_trackers;
    live.erase(std::remove_if(live.begin(), live.end(),
                              [](const std::weak_ptr<QueryMemoryTracker>& w) {
                                return w.expired();
                              }),
               live.end());
    live.push_back(job->tracker());
  }
  impl_->Admit(std::move(job), cls, admission.cost_ms, admission.fully_cached);
  return future;
}

ArtifactCacheStats QueryEngine::artifact_cache_stats() const {
  return impl_->cache.stats();
}

const ArtifactCache& QueryEngine::artifact_cache() const {
  return impl_->cache;
}

void QueryEngine::set_artifact_cache_byte_budget(uint64_t bytes) {
  impl_->cache.set_byte_budget(bytes);
}

void QueryEngine::ClearArtifactCache() { impl_->cache.Clear(); }

void QueryEngine::set_anomaly_deviation_factor(double factor) {
  impl_->obs.sentinel.set_deviation_factor(factor);
}

std::vector<AnomalyRecord> QueryEngine::RecentAnomalies() const {
  return impl_->obs.sentinel.RecentAnomalies();
}

MetricsSnapshot QueryEngine::ObservabilitySnapshot() const {
  return impl_->BuildSnapshot();
}

MetricsSnapshot QueryEngine::Impl::BuildSnapshot() const {
  // Serialized against ResetObservabilityStats: a concurrent reset either
  // happened entirely before this snapshot or entirely after it.
  std::lock_guard<std::mutex> epoch_lock(obs.stats_mu);
  MetricsSnapshot snap = obs.metrics.Snapshot();
  char name[64];

  // Scheduler: lifetime slice counters and per-class weighted-fair shares.
  snap.counters.emplace_back("sched.executed_slices",
                             sched.executed_slices());
  for (int c = 0; c < kNumTaskClasses; ++c) {
    std::snprintf(name, sizeof(name), "sched.class_slices.class%d", c);
    snap.counters.emplace_back(name, sched.class_slices(c));
    std::snprintf(name, sizeof(name), "sched.class_weight.class%d", c);
    snap.gauges.emplace_back(name, sched.class_weight(c));
  }

  // Artifact cache: monotonic counters plus residency gauges.
  const ArtifactCacheStats cs = cache.stats();
  snap.counters.emplace_back("cache.entry_hits", cs.entry_hits);
  snap.counters.emplace_back("cache.entry_misses", cs.entry_misses);
  snap.counters.emplace_back("cache.bytecode_hits", cs.bytecode_hits);
  snap.counters.emplace_back("cache.patched_hits", cs.patched_hits);
  snap.counters.emplace_back("cache.bytecode_misses", cs.bytecode_misses);
  snap.counters.emplace_back("cache.code_hits", cs.code_hits);
  snap.counters.emplace_back("cache.publishes", cs.publishes);
  snap.counters.emplace_back("cache.evictions", cs.evictions);
  snap.counters.emplace_back("cache.cost_feedback_updates",
                             cs.cost_feedback_updates);
  snap.gauges.emplace_back("cache.bytes", static_cast<int64_t>(cs.bytes));
  snap.gauges.emplace_back("cache.entries", static_cast<int64_t>(cs.entries));

  // Translator: cumulative fusion counters (§IV-F effectiveness).
  const TranslatorCounters tc = TranslatorCountersSnapshot();
  snap.counters.emplace_back("translator.programs", tc.programs);
  snap.counters.emplace_back("translator.bytecode_ops", tc.bytecode_ops);
  snap.counters.emplace_back("translator.fused_instructions",
                             tc.fused_instructions);
  snap.counters.emplace_back("translator.fused_cmp_branches",
                             tc.fused_cmp_branches);

  // VM: per-opcode dispatch counts (populated while opcode profiling is
  // on — set_vm_opcode_profiling or AQE_VM_PROFILE).
  for (const VmOpcodeCount& oc : VmProfileCounts()) {
    std::string op_name = "vm.op.";
    op_name += oc.opcode;
    snap.counters.emplace_back(std::move(op_name), oc.count);
  }

  // Trace rings: how much the exporters can still see — the totals plus a
  // per-lane breakdown, so a single overflowing worker is identifiable.
  // `dropped` splits into deliberate bulk-event decimation under ring
  // pressure (`dropped.sampled`) vs genuine loss of lossless-class events
  // (`dropped.lost` — what ci/check_trace.py gates at 0).
  snap.counters.emplace_back("trace.recorded", obs.tracer.total_recorded());
  snap.counters.emplace_back("trace.dropped", obs.tracer.total_dropped());
  snap.counters.emplace_back("trace.dropped.sampled",
                             obs.tracer.total_dropped_sampled());
  snap.counters.emplace_back("trace.dropped.lost",
                             obs.tracer.total_dropped_lost());
  for (const EngineTracer::LaneStats& ls : obs.tracer.lane_stats()) {
    std::snprintf(name, sizeof(name), "obs.ring.dropped.lane%d", ls.lane);
    snap.counters.emplace_back(name, ls.dropped);
  }

  // Regression sentinel.
  snap.counters.emplace_back("engine.anomalies_total",
                             obs.sentinel.anomaly_count());

  // Memory accounting: live tracked bytes across in-flight queries and the
  // engine-lifetime peak. The profiler's sampling rate rides along so
  // scrapers can interpret profiler.samples as a rate.
  uint64_t mem_current = 0;
  {
    std::lock_guard<std::mutex> lock(obs.trackers_mu);
    for (const std::weak_ptr<QueryMemoryTracker>& w : obs.live_trackers) {
      if (std::shared_ptr<QueryMemoryTracker> t = w.lock()) {
        mem_current += t->current_bytes();
      }
    }
  }
  snap.gauges.emplace_back("mem.current_bytes",
                           static_cast<int64_t>(mem_current));
  snap.gauges.emplace_back(
      "mem.peak_bytes",
      static_cast<int64_t>(obs.engine_peak_bytes.load()));
  snap.gauges.emplace_back(
      "profiler.hz", obs.profiler != nullptr ? obs.profiler->hz() : 0);

  // Reset epoch last (tests key on it closing the gauge list; it moves
  // when a concurrent ResetObservabilityStats landed between snapshots).
  snap.gauges.emplace_back("obs.epoch",
                           static_cast<int64_t>(obs.stats_epoch.load()));
  return snap;
}

std::string QueryEngine::Impl::ProfilesJson() const {
  std::string out = "{\"profiles\":[";
  {
    std::lock_guard<std::mutex> lock(obs.profiles_mu);
    bool first = true;
    for (const auto& profile : obs.recent_profiles) {
      if (!first) out += ',';
      out += profile->ToJson();
      first = false;
    }
  }
  out += "],\"anomalies\":[";
  bool first = true;
  for (const AnomalyRecord& a : obs.sentinel.RecentAnomalies()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"fingerprint\":\"%016llx\",\"query\":%u,"
                  "\"cause\":\"%s\",\"expected_ms\":%.3f,"
                  "\"observed_ms\":%.3f,\"queue_wait_ms\":%.3f,\"plan\":\"",
                  first ? "" : ",",
                  static_cast<unsigned long long>(a.fingerprint), a.query_id,
                  AnomalyCauseName(a.cause), a.expected_ms, a.observed_ms,
                  a.queue_wait_ms);
    out += buf;
    for (char c : a.plan_name) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    out += "\"}";
    first = false;
  }
  out += "]}";
  return out;
}

std::string QueryEngine::ExportChromeTrace() const {
  return ChromeTraceJson(impl_->obs.tracer.Snapshot());
}

std::string QueryEngine::RenderTrace(int width) const {
  return RenderTextTrace(impl_->obs.tracer.Snapshot(),
                         impl_->sched.num_workers(), width);
}

void QueryEngine::ResetObservabilityStats() {
  // One epoch: every resettable source zeroes under the same lock
  // BuildSnapshot holds, so a concurrent snapshot never sees half a reset.
  std::lock_guard<std::mutex> epoch_lock(impl_->obs.stats_mu);
  impl_->obs.stats_epoch.fetch_add(1, std::memory_order_relaxed);
  impl_->obs.metrics.Reset();
  impl_->obs.tracer.Reset();
  impl_->obs.sentinel.ResetAnomalies();
  if (impl_->obs.profiler != nullptr) impl_->obs.profiler->Reset();
  impl_->cache.ResetStats();
  VmResetProfileCounts();
  ResetTranslatorCounters();
}

void QueryEngine::set_vm_opcode_profiling(bool enabled) {
  VmSetProfileCounting(enabled);
}

const EngineTracer& QueryEngine::tracer() const { return impl_->obs.tracer; }

QueryRunResult QueryEngine::Run(const QueryProgram& program,
                                const QueryRunOptions& options) {
  AQE_CHECK_MSG(TaskScheduler::CurrentScheduler() != &impl_->sched,
                "QueryEngine::Run from one of this engine's own tasks would "
                "deadlock; use Submit");
  return Submit(program, options).get();
}

std::vector<PipelineCompileCosts> QueryEngine::MeasureCompileCosts(
    const QueryProgram& program, bool measure_unopt, bool measure_opt,
    const TranslatorOptions& translator_options,
    const CostModelParams& cost_model) {
  std::vector<PipelineCompileCosts> costs;
  std::unique_ptr<QueryContext> ctx = program.MakeContext(impl_->catalog);
  const RuntimeRegistry& registry = RuntimeRegistry::Global();

  for (const QueryProgram::Stage& stage : program.stages()) {
    if (stage.pipeline < 0) {
      stage.step(ctx.get());
      continue;
    }
    const PipelineSpec& spec =
        program.pipelines()[static_cast<size_t>(stage.pipeline)];
    PipelineBindings bindings = BindPipeline(program, spec, *ctx);
    PipelineCompileCosts cost;
    cost.name = spec.name;

    GeneratedPipeline generated = GeneratePipeline(spec, bindings);
    cost.instructions = generated.instructions;
    cost.codegen_millis = generated.codegen_millis;
    cost.runtime_calls = generated.loop_calls;
    cost.runtime_call_fraction = RuntimeCallFraction(
        generated.loop_instructions, generated.loop_calls, cost_model);

    {
      Timer timer;
      BcProgram bytecode = TranslateToBytecode(
          *generated.mod->module().getFunction("worker"), registry,
          translator_options);
      cost.bytecode_millis = timer.ElapsedMillis();
      cost.register_file_bytes = bytecode.register_file_size;
      cost.bytecode_ops = bytecode.code.size();
      cost.fused_ops = bytecode.fused_instructions;
      cost.fused_cmp_branches = bytecode.fused_cmp_branches;
    }
    if (measure_unopt) {
      GeneratedPipeline fresh = GeneratePipeline(spec, bindings);
      Timer timer;
      auto compiled =
          JitCompile(std::move(*fresh.mod), JitMode::kUnoptimized, registry);
      cost.unopt_millis = timer.ElapsedMillis();
    }
    if (measure_opt) {
      GeneratedPipeline fresh = GeneratePipeline(spec, bindings);
      Timer timer;
      auto compiled =
          JitCompile(std::move(*fresh.mod), JitMode::kOptimized, registry);
      cost.opt_millis = timer.ElapsedMillis();
    }
    costs.push_back(std::move(cost));

    // Execute the pipeline (interpreted) so later pipelines can bind to the
    // hash tables / temp tables this one produces.
    RunPipelineVolcano(program, spec, ctx.get());
  }
  return costs;
}

}  // namespace aqe
