// The layered benchmark program: one workload, one seed, one run. See
// perfbench/README.md for the workloads, the metrics and how to read them.
//
//   aqe_perfbench --workload cold_tpch --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with the benchmark's own
// tracing off; --trace 1 runs the same workload with spans around every
// layer call, plus the static-strategy and direct layer probes, and reports
// the per-layer metrics. Every query result is checked against a Volcano
// reference; the last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "common/timer.h"
#include "engine/query_engine.h"
#include "index/table_index.h"
#include "simd/simd.h"
#include "src/layers.h"
#include "src/report.h"
#include "src/spans.h"
#include "src/workloads.h"
#include "tpch/tpch_gen.h"
#include "vm/interpreter.h"

namespace perfbench {
namespace {

constexpr int kEngineWorkers = 4;
/// Set-up runs this often; setup_s is the median.
constexpr int kSetupRepeats = 3;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char* kTables[] = {"region",   "nation", "supplier",
                                   "customer", "part",   "partsupp",
                                   "orders",   "lineitem"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double sf = 0;  ///< > 0 overrides the workload's scale factor
  std::string spans_out;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--sf") {
      options->sf = std::atof(value.c_str());
    } else if (flag == "--spans-out") {
      options->spans_out = value;
    } else if (flag == "--git-commit") {
      options->git_commit = value;
    } else if (flag == "--source-digest") {
      options->source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Restarts the kernel's peak-RSS count (VmHWM), so the peak read later
/// belongs to the timed phase and not to data generation or the reference.
void ResetPeakRss() {
  if (std::FILE* file = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", file);
    std::fclose(file);
  }
}

/// VmHWM: the process's peak RSS since the last reset (or since start).
double PeakRssMb() {
  double kib = 0;
  if (std::FILE* file = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), file) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(file);
  }
  if (kib == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = static_cast<double>(usage.ru_maxrss);
  }
  return kib / 1024.0;
}

/// One submitted query as the client saw it, plus what the engine reported.
struct Sample {
  int plan = 0;
  int query_class = 0;
  bool ok = false;
  bool traced = false;
  double latency_ms = 0;  ///< plan build + submit + result, client side
  double queue_wait_ms = 0;
  double service_ms = 0;  ///< engine total minus queue wait
  double exec_ms = 0;     ///< engine exec-only time
  double compile_ms = 0;
  uint64_t tuples = 0;
  uint64_t peak_bytes = 0;
  uint64_t scheduled_rows = 0;  ///< pruned scans: rows scheduled
  uint64_t table_rows = 0;      ///< pruned scans: rows in the table
  int switches = 0;
  std::vector<double> predict_log2_err;
};

/// A stretch of the timed phase: one round of the cold workloads, one
/// second of warm_serve. Throughput and CPU per query are medians over
/// segments, so a stall of the shared host moves one segment, not the run.
struct Segment {
  double wall_seconds = 0;
  double cpu_seconds = 0;
  uint64_t completed = 0;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<Segment> segments;
  double wall_seconds = 0;
};

std::vector<double> Pick(const std::vector<Sample>& samples,
                         double Sample::*field) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.ok) out.push_back(s.*field);
  }
  return out;
}

/// Geomean over plans of each plan's median of `field` (Fig 13's statistic).
double PlanGeoMean(const std::vector<Sample>& samples, double Sample::*field) {
  std::map<int, std::vector<double>> per_plan;
  for (const Sample& s : samples) {
    if (s.ok) per_plan[s.plan].push_back(s.*field);
  }
  std::vector<double> medians;
  for (auto& entry : per_plan) medians.push_back(Median(entry.second));
  return GeoMean(medians);
}

class Bench {
 public:
  Bench(const Options& options, Workload workload)
      : options_(options), workload_(std::move(workload)) {
    if (options_.trace) spans_ = std::make_unique<SpanLog>();
  }

  int Run();

 private:
  void Setup();
  void ComputeReference();
  double Warmup(int64_t parent_span);
  Sample RunQuery(int plan, int query_class, aqe::ExecutionStrategy strategy,
                  bool use_cache, bool traced);
  Phase TimedPhase(double seconds);
  void StaticStrategies(double seconds);
  std::vector<Metric> EndToEndMetrics(const Phase& phase) const;
  std::vector<Metric> PerLayerMetrics(const Phase& phase);
  void PrintFingerprint() const;
  void PrintPlanLatencies(const Phase& phase) const;

  const Options& options_;
  Workload workload_;
  std::unique_ptr<SpanLog> spans_;  ///< null in the untraced run

  // The system under test. The engine is declared after the catalog so it
  // is destroyed first.
  std::unique_ptr<aqe::Catalog> catalog_;
  std::unique_ptr<aqe::QueryEngine> engine_;

  std::vector<uint64_t> reference_;  ///< per-plan Volcano digest
  std::vector<double> setup_seconds_;
  CompileCounts compile_counts_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<int64_t> next_query_id_{0};

  // --trace 1 only: static-strategy samples, [plan] -> strategy -> samples.
  std::map<int, std::map<aqe::ExecutionStrategy, std::vector<Sample>>>
      static_runs_;
};

void Bench::Setup() {
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine_.reset();
    catalog_.reset();
    ScopedSpan setup_span(spans_.get(), "setup", -1, -1);
    aqe::Timer generate_timer;
    {
      ScopedSpan span(spans_.get(), "tpch.generate", setup_span.id(), -1);
      catalog_ = std::make_unique<aqe::Catalog>();
      aqe::tpch::BuildTpchDatabase(catalog_.get(), workload_.sf);
      if (spans_ != nullptr) {
        // GenerateTpchData builds every table's indexes last, so the index
        // build is the tail of the generate span.
        double index_seconds = 0;
        for (const char* table : kTables) {
          index_seconds += catalog_->GetTable(table)->indexes()->build_seconds;
        }
        int64_t end = aqe::MonotonicNanos();
        spans_->Add("index.build", span.id(), -1,
                    end - static_cast<int64_t>(index_seconds * 1e9), end);
      }
    }
    double generate_seconds = generate_timer.ElapsedSeconds();
    // The reference is the checker's cost, not the system's: untimed.
    if (rep == 0) ComputeReference();

    aqe::Timer engine_timer;
    {
      ScopedSpan span(spans_.get(), "engine.construct", setup_span.id(), -1);
      aqe::QueryEngineOptions engine_options;
      engine_options.num_threads = kEngineWorkers;
      engine_ = std::make_unique<aqe::QueryEngine>(catalog_.get(),
                                                   engine_options);
      engine_->set_class_weight(3, workload_.class3_weight);
    }
    double engine_seconds = engine_timer.ElapsedSeconds();
    double warmup_seconds = Warmup(setup_span.id());
    setup_seconds_.push_back(generate_seconds + engine_seconds +
                             warmup_seconds);
  }
}

void Bench::ComputeReference() {
  const size_t n = workload_.plans.size();
  reference_.assign(n, 0);
  if (spans_ == nullptr) {
    // Untraced: the reference runs in parallel, nothing is timed.
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kEngineWorkers; ++t) {
      threads.emplace_back([&] {
        for (size_t i = next++; i < n; i = next++) {
          aqe::QueryProgram program = BuildPlan(workload_.plans[i], *catalog_);
          CompileCounts unused;
          reference_[i] = RowsDigest(ReferenceWalk(program, *catalog_, nullptr,
                                                   -1, -1, &unused));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return;
  }
  // Traced: one plan at a time, with the compile-side layers timed on every
  // pipeline and the plan builder and fingerprint timed on their own.
  constexpr int kFingerprintRepeats = 20;
  for (size_t i = 0; i < n; ++i) {
    int64_t query = next_query_id_++;
    ScopedSpan root(spans_.get(), "probe", -1, query);
    for (int r = 0; r < kFingerprintRepeats; ++r) {
      ScopedSpan span(spans_.get(), "probe.plan", root.id(), query);
      std::unique_ptr<aqe::QueryProgram> program;
      {
        ScopedSpan build(spans_.get(), "plan.build", span.id(), query);
        program = std::make_unique<aqe::QueryProgram>(
            BuildPlan(workload_.plans[i], *catalog_));
      }
      ScopedSpan fingerprint(spans_.get(), "cache.fingerprint", span.id(),
                             query);
      aqe::FingerprintProgram(*program);
    }
    aqe::QueryProgram program = BuildPlan(workload_.plans[i], *catalog_);
    reference_[i] = RowsDigest(ReferenceWalk(
        program, *catalog_, spans_.get(), root.id(), query, &compile_counts_));
  }
}

double Bench::Warmup(int64_t parent_span) {
  ScopedSpan span(spans_.get(), "warmup", parent_span, -1);
  aqe::Timer timer;
  std::vector<int> order(workload_.plans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Rng rng(options_.seed ^ 0x5741524D5550ull);
  if (workload_.clients.empty()) rng.Shuffle(&order);
  for (int plan : order) {
    // Short-pool plans warm in their own class, as they run later.
    int query_class = 0;
    for (const ClientSpec& client : workload_.clients) {
      for (int p : client.deck) {
        if (p == plan) query_class = client.query_class;
      }
    }
    RunQuery(plan, query_class, aqe::ExecutionStrategy::kAdaptive,
             workload_.use_artifact_cache, false);
  }
  return timer.ElapsedSeconds();
}

Sample Bench::RunQuery(int plan, int query_class,
                       aqe::ExecutionStrategy strategy, bool use_cache,
                       bool traced) {
  SpanLog* spans = traced ? spans_.get() : nullptr;
  int64_t query = spans != nullptr ? next_query_id_++ : -1;
  Sample sample;
  sample.plan = plan;
  sample.query_class = query_class;
  sample.traced = spans != nullptr;
  ++attempted_;
  ScopedSpan root(spans, "query", -1, query);
  aqe::Timer timer;
  try {
    std::unique_ptr<aqe::QueryProgram> program;
    {
      ScopedSpan span(spans, "plan.build", root.id(), query);
      program = std::make_unique<aqe::QueryProgram>(
          BuildPlan(workload_.plans[static_cast<size_t>(plan)], *catalog_));
    }
    aqe::QueryRunOptions run_options;
    run_options.strategy = strategy;
    run_options.use_artifact_cache = use_cache;
    run_options.query_class = query_class;
    aqe::QueryRunResult result;
    {
      ScopedSpan span(spans, "engine.run", root.id(), query);
      result = engine_->Submit(*program, run_options).get();
    }
    sample.latency_ms = timer.ElapsedMillis();
    sample.ok = RowsDigest(result.rows) ==
                reference_[static_cast<size_t>(plan)];
    if (!sample.ok) {
      std::fprintf(stderr, "query %s: wrong result\n",
                   workload_.plans[static_cast<size_t>(plan)].name.c_str());
    }
    sample.queue_wait_ms = result.queue_wait_seconds * 1e3;
    sample.service_ms =
        (result.total_seconds - result.queue_wait_seconds) * 1e3;
    sample.exec_ms = result.exec_seconds_total * 1e3;
    sample.compile_ms = result.compile_millis_total;
    sample.peak_bytes = result.peak_memory_bytes;
    for (const aqe::PipelineReport& report : result.pipelines) {
      sample.tuples += report.tuples;
      sample.switches += static_cast<int>(report.mode_switches.size());
      if (report.pruning.analyzed) {
        sample.scheduled_rows += report.pruning.selected_rows;
        sample.table_rows += report.pruning.table_rows;
      }
      for (const aqe::ModeSwitchRecord& record : report.mode_switches) {
        if (record.t_chosen_seconds > 0 && record.realized_seconds > 0) {
          sample.predict_log2_err.push_back(std::fabs(
              std::log2(record.t_chosen_seconds / record.realized_seconds)));
        }
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "query %s failed: %s\n",
                 workload_.plans[static_cast<size_t>(plan)].name.c_str(),
                 error.what());
    sample.latency_ms = timer.ElapsedMillis();
    sample.ok = false;
  }
  if (!sample.ok) ++failed_;
  return sample;
}

Phase Bench::TimedPhase(double seconds) {
  Phase phase;
  aqe::Timer timer;
  if (workload_.clients.empty()) {
    // One closed-loop client; every round runs each plan once, shuffled.
    // Rounds are whole, so every plan has the same number of samples. The
    // traced run alternates traced and untraced rounds.
    std::vector<int> order(workload_.plans.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    Rng rng(options_.seed);
    for (int round = 0; timer.ElapsedSeconds() < seconds; ++round) {
      rng.Shuffle(&order);
      bool traced = spans_ != nullptr && round % 2 == 1;
      Segment segment;
      double cpu_start = CpuSeconds();
      aqe::Timer round_timer;
      for (int plan : order) {
        phase.samples.push_back(RunQuery(plan, 0,
                                         aqe::ExecutionStrategy::kAdaptive,
                                         workload_.use_artifact_cache, traced));
        segment.completed += phase.samples.back().ok;
      }
      segment.wall_seconds = round_timer.ElapsedSeconds();
      segment.cpu_seconds = CpuSeconds() - cpu_start;
      phase.segments.push_back(segment);
    }
  } else {
    // Closed-loop clients sharing the engine. The traced run alternates
    // traced and untraced quarter-second slices.
    std::mutex mu;
    std::atomic<uint64_t> completed{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < workload_.clients.size(); ++c) {
      threads.emplace_back([&, c] {
        const ClientSpec& client = workload_.clients[c];
        Rng rng(options_.seed * 31 + c);
        std::vector<int> deck = client.deck;
        size_t next = deck.size();
        std::vector<Sample> local;
        double elapsed;
        while ((elapsed = timer.ElapsedSeconds()) < seconds) {
          if (next == deck.size()) {
            rng.Shuffle(&deck);
            next = 0;
          }
          int plan = deck[next++];
          bool traced = spans_ != nullptr &&
                        static_cast<int64_t>(elapsed * 4) % 2 == 1;
          local.push_back(RunQuery(plan, client.query_class,
                                   aqe::ExecutionStrategy::kAdaptive,
                                   workload_.use_artifact_cache, traced));
          completed += local.back().ok;
        }
        std::lock_guard<std::mutex> lock(mu);
        phase.samples.insert(phase.samples.end(), local.begin(), local.end());
      });
    }
    // One-second windows while the clients run.
    double window_start = 0, cpu_start = CpuSeconds();
    uint64_t completed_start = 0;
    for (double end = 1.0; end <= seconds; end += 1.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(end - timer.ElapsedSeconds()));
      double now = timer.ElapsedSeconds(), cpu = CpuSeconds();
      uint64_t done = completed.load();
      phase.segments.push_back(
          {now - window_start, cpu - cpu_start, done - completed_start});
      window_start = now;
      cpu_start = cpu;
      completed_start = done;
    }
    for (std::thread& thread : threads) thread.join();
  }
  phase.wall_seconds = timer.ElapsedSeconds();
  return phase;
}

/// --trace 1 only: every plan under each static strategy and adaptive, the
/// strategy order rotating per plan and round so the four see the same
/// machine state. Artifact cache off: these are cold totals, Fig 13's.
void Bench::StaticStrategies(double seconds) {
  const aqe::ExecutionStrategy strategies[] = {
      aqe::ExecutionStrategy::kBytecode, aqe::ExecutionStrategy::kUnoptimized,
      aqe::ExecutionStrategy::kOptimized, aqe::ExecutionStrategy::kAdaptive};
  ScopedSpan span(spans_.get(), "static_strategies", -1, -1);
  aqe::Timer timer;
  for (int round = 0; round < 3 && (round == 0 || timer.ElapsedSeconds() < seconds);
       ++round) {
    for (size_t plan = 0; plan < workload_.plans.size(); ++plan) {
      for (int k = 0; k < 4; ++k) {
        aqe::ExecutionStrategy strategy =
            strategies[(static_cast<size_t>(k + round) + plan) % 4];
        Sample sample = RunQuery(static_cast<int>(plan), 0, strategy, false,
                                 false);
        if (sample.ok) {
          static_runs_[static_cast<int>(plan)][strategy].push_back(sample);
        }
      }
    }
  }
}

std::vector<Metric> Bench::EndToEndMetrics(const Phase& phase) const {
  std::vector<Sample> short_samples;
  bool has_short_class = false;
  for (const ClientSpec& client : workload_.clients) {
    has_short_class |= client.query_class == 3;
  }
  // Single-class workloads: every query is in the one class.
  for (const Sample& s : phase.samples) {
    if (!has_short_class || s.query_class == 3) short_samples.push_back(s);
  }
  std::vector<double> latencies = Pick(phase.samples, &Sample::latency_ms);
  std::vector<double> short_latencies = Pick(short_samples, &Sample::latency_ms);
  std::vector<double> qps, cpu_ms;
  for (const Segment& segment : phase.segments) {
    if (segment.completed == 0) continue;
    double completed = static_cast<double>(segment.completed);
    qps.push_back(completed / segment.wall_seconds);
    cpu_ms.push_back(segment.cpu_seconds * 1e3 / completed);
  }
  return {
      {"setup_s", Median(setup_seconds_), "s"},
      {"latency_geomean_ms", PlanGeoMean(phase.samples, &Sample::latency_ms),
       "ms"},
      {"latency_p50_ms", Percentile(latencies, 0.50), "ms"},
      {"latency_p95_ms", Percentile(latencies, 0.95), "ms"},
      {"throughput_qps", Median(qps), "1/s"},
      {"cpu_ms_per_query", Median(cpu_ms), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"short_p50_ms", Percentile(short_latencies, 0.50), "ms"},
      {"short_p95_ms", Percentile(short_latencies, 0.95), "ms"},
  };
}

std::vector<Metric> Bench::PerLayerMetrics(const Phase& phase) {
  const std::vector<Span> spans = spans_->Snapshot();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  auto span_geomean_ms = [&](const std::string& name) {
    std::vector<double> per_query = SelfSecondsPerQuery(spans, self, name);
    for (double& v : per_query) v *= 1e3;
    return GeoMean(per_query);
  };
  auto span_median = [&](const std::string& name, double scale) {
    return Median(SelfSecondsPerSpan(spans, self, name)) * scale;
  };

  // Static strategies: exec-only geomeans and regret from cold totals.
  auto exec_geomean = [&](aqe::ExecutionStrategy strategy) {
    std::vector<double> medians;
    for (auto& [plan, runs] : static_runs_) {
      medians.push_back(Median(Pick(runs[strategy], &Sample::exec_ms)));
    }
    return GeoMean(medians);
  };
  double bytecode_exec_s = 0, bytecode_tuples = 0;
  std::vector<double> regrets;
  std::printf("# adaptive.regret per plan (adaptive / best static, medians):\n");
  for (auto& [plan, runs] : static_runs_) {
    for (const Sample& s : runs[aqe::ExecutionStrategy::kBytecode]) {
      bytecode_exec_s += s.exec_ms * 1e-3;
      bytecode_tuples += static_cast<double>(s.tuples);
    }
    double adaptive =
        Median(Pick(runs[aqe::ExecutionStrategy::kAdaptive], &Sample::latency_ms));
    double best = 0;
    for (auto strategy : {aqe::ExecutionStrategy::kBytecode,
                          aqe::ExecutionStrategy::kUnoptimized,
                          aqe::ExecutionStrategy::kOptimized}) {
      double m = Median(Pick(runs[strategy], &Sample::latency_ms));
      if (best == 0 || m < best) best = m;
    }
    double regret = adaptive / best;
    regrets.push_back(regret);
    std::printf("#   %-24s %.3f\n",
                workload_.plans[static_cast<size_t>(plan)].name.c_str(), regret);
  }
  double regret = GeoMean(regrets);
  std::printf("# headline: adaptive.regret geomean %.3f, <= 1.1 %s on %s "
              "(reported, not gated)\n",
              regret, regret <= 1.1 ? "holds" : "does not hold",
              workload_.name.c_str());

  // Timed-phase samples: engine-reported per-query figures.
  const std::vector<Sample>& samples = phase.samples;
  double n = 0, compile_ms = 0, switches = 0;
  double scheduled = 0, table_rows = 0;
  double traced_ms = 0, traced_n = 0, untraced_ms = 0, untraced_n = 0;
  std::vector<double> errors;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    ++n;
    compile_ms += s.compile_ms;
    switches += s.switches;
    scheduled += static_cast<double>(s.scheduled_rows);
    table_rows += static_cast<double>(s.table_rows);
    errors.insert(errors.end(), s.predict_log2_err.begin(),
                  s.predict_log2_err.end());
    (s.traced ? traced_ms : untraced_ms) += s.latency_ms;
    (s.traced ? traced_n : untraced_n) += 1;
  }
  std::vector<double> peaks;
  for (const Sample& s : samples) {
    if (s.ok) peaks.push_back(static_cast<double>(s.peak_bytes) / kMiB);
  }

  aqe::ArtifactCacheStats cache = engine_->artifact_cache_stats();
  double hits = static_cast<double>(cache.bytecode_hits + cache.patched_hits);
  double lookups = hits + static_cast<double>(cache.bytecode_misses);

  const uint64_t keys = static_cast<uint64_t>(1.5e6 * workload_.sf);
  RuntimeCosts runtime =
      ProbeRuntime(keys, 4 * keys, options_.seed, spans_.get());
  if (!runtime.ok) ++failed_;
  ++attempted_;
  double roundtrip_us = SchedRoundtripMicros(kEngineWorkers, 2000, spans_.get());

  return {
      {"tpch.generate_s", span_median("tpch.generate", 1.0), "s"},
      {"index.build_s", span_median("index.build", 1.0), "s"},
      {"index.rows_scanned_frac", table_rows > 0 ? scheduled / table_rows : 1.0,
       "ratio"},
      {"plan.build_us", span_median("plan.build", 1e6), "us"},
      {"cache.fingerprint_us", span_median("cache.fingerprint", 1e6), "us"},
      {"cache.hit_frac", lookups > 0 ? hits / lookups : 0.0, "ratio"},
      {"cache.resident_mb", static_cast<double>(cache.bytes) / kMiB, "MB"},
      {"codegen.generate_ms", span_geomean_ms("codegen.generate"), "ms"},
      {"ir.instructions", static_cast<double>(compile_counts_.ir_instructions),
       "count"},
      {"vm.translate_ms", span_geomean_ms("vm.translate"), "ms"},
      {"vm.bytecode_ops", static_cast<double>(compile_counts_.bytecode_ops),
       "count"},
      {"vm.exec_ms", exec_geomean(aqe::ExecutionStrategy::kBytecode), "ms"},
      {"vm.ns_per_tuple",
       bytecode_tuples > 0 ? bytecode_exec_s * 1e9 / bytecode_tuples : 0.0,
       "ns"},
      {"jit.unopt_compile_ms", span_geomean_ms("jit.compile_unopt"), "ms"},
      {"jit.opt_compile_ms", span_geomean_ms("jit.compile_opt"), "ms"},
      {"jit.opt_exec_ms", exec_geomean(aqe::ExecutionStrategy::kOptimized),
       "ms"},
      {"adaptive.regret", regret, "ratio"},
      {"adaptive.compile_ms_per_query", n > 0 ? compile_ms / n : 0.0, "ms"},
      {"adaptive.switches_per_query", n > 0 ? switches / n : 0.0, "count"},
      {"adaptive.predict_log2_err", Median(errors), "log2"},
      {"engine.queue_wait_p95_ms",
       Percentile(Pick(samples, &Sample::queue_wait_ms), 0.95), "ms"},
      {"engine.service_p50_ms", Median(Pick(samples, &Sample::service_ms)),
       "ms"},
      {"sched.task_roundtrip_us", roundtrip_us, "us"},
      {"runtime.join_build_ns_per_row", runtime.join_build_ns, "ns"},
      {"runtime.join_probe_ns_per_row", runtime.join_probe_ns, "ns"},
      {"runtime.agg_ns_per_row", runtime.agg_ns, "ns"},
      {"runtime.query_peak_mb", Median(peaks), "MB"},
      {"obs.trace_overhead_frac",
       traced_n > 0 && untraced_n > 0
           ? (traced_ms / traced_n) / (untraced_ms / untraced_n) - 1.0
           : 0.0,
       "ratio"},
  };
}

void Bench::PrintPlanLatencies(const Phase& phase) const {
  std::map<int, std::vector<double>> per_plan;
  for (const Sample& s : phase.samples) {
    if (s.ok) per_plan[s.plan].push_back(s.latency_ms);
  }
  std::printf("# per-plan latency [ms]: n, p25, median, p75\n");
  for (const auto& [plan, latencies] : per_plan) {
    std::printf("#   %-24s %5zu %10.3f %10.3f %10.3f\n",
                workload_.plans[static_cast<size_t>(plan)].name.c_str(),
                latencies.size(), Percentile(latencies, 0.25),
                Median(latencies), Percentile(latencies, 0.75));
  }
}

void Bench::PrintFingerprint() const {
  std::printf(
      "{\"fingerprint\": {\"workload\": %s, \"seed\": %llu, \"sf\": %g, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, \"engine_workers\": %d, "
      "\"simd\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"vm_dispatch\": %s, \"git_commit\": %s, \"source_digest\": %s}}\n",
      JsonString(workload_.name).c_str(),
      static_cast<unsigned long long>(options_.seed), workload_.sf,
      options_.seconds, options_.trace ? 1 : 0,
      std::thread::hardware_concurrency(), kEngineWorkers,
      JsonString(aqe::SimdLevelName(aqe::ActiveSimdLevel())).c_str(),
      JsonString(__VERSION__).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(aqe::VmDispatchName(
                     aqe::VmResolveDispatch(aqe::VmDispatch::kDefault)))
          .c_str(),
      JsonString(options_.git_commit).c_str(),
      JsonString(options_.source_digest).c_str());
}

int Bench::Run() {
  PrintFingerprint();
  aqe::Timer run_timer;
  Setup();
  engine_->ResetObservabilityStats();
  std::fprintf(stderr, "[perfbench] %s: set-up done after %.1fs\n",
               workload_.name.c_str(), run_timer.ElapsedSeconds());

  std::vector<Metric> metrics;
  if (spans_ == nullptr) {
    ResetPeakRss();
    Phase phase = TimedPhase(options_.seconds);
    metrics = EndToEndMetrics(phase);
    std::vector<double> latencies = Pick(phase.samples, &Sample::latency_ms);
    size_t beyond_p95 = latencies.size() / 20;
    std::printf("# %zu timed queries in %.2fs; %zu beyond p95%s\n",
                phase.samples.size(), phase.wall_seconds, beyond_p95,
                beyond_p95 < 10 ? " (fewer than 10: lengthen the run)" : "");
    PrintPlanLatencies(phase);
  } else {
    Phase phase = TimedPhase(options_.seconds * 0.5);
    StaticStrategies(options_.seconds * 0.5);
    metrics = PerLayerMetrics(phase);
    std::printf("# %zu traced-phase queries, %zu spans\n",
                phase.samples.size(), spans_->Snapshot().size());
    if (!options_.spans_out.empty()) {
      std::vector<Span> spans = spans_->Snapshot();
      if (!WriteSpans(options_.spans_out, spans, SelfTimesNs(spans))) {
        std::fprintf(stderr, "cannot write %s\n", options_.spans_out.c_str());
      }
    }
  }
  for (const Metric& m : metrics) {
    std::printf("# %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(stderr, "[perfbench] %s: done after %.1fs\n",
               workload_.name.c_str(), run_timer.ElapsedSeconds());
  uint64_t failed = failed_.load();
  std::printf("%s\n",
              ResultJson(failed == 0, attempted_.load(), failed, metrics).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: aqe_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--sf SF] [--spans-out FILE]\n");
    return 2;
  }
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(options.workload, options.seed, options.sf,
                               &workload)) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(options, std::move(workload));
  return bench.Run();
}
