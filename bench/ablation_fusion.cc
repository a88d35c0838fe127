// §IV-F ablation at the query level: execution time of all implemented
// TPC-H queries in bytecode mode under the two fusion switches —
// fuse_macro_ops (overflow-check sequences, GEP+load/store folding) and
// fuse_cmp_branches (compare-and-branch superinstructions plus short-circuit
// branch chains). One thread, artifact cache off, execution time only
// (translation excluded). Rounds interleave the configs, rotating their
// order each round, so drift hits every config equally; each cell is the
// median over rounds, and the summary rows give the geomean of the medians
// and its ratio against the full macro+cmp setting.
//
//   AQE_SF=0.1 ./build/bench/ablation_fusion
#include "bench/bench_util.h"

using namespace aqe;

int main() {
  const double sf = bench::EnvDouble("AQE_SF", 0.1);
  constexpr int kRounds = 7;
  Catalog* catalog = bench::TpchAtScale(sf);
  QueryEngine engine(catalog, 1);

  struct FusionConfig {
    const char* label;
    bool macro_ops;
    bool cmp_branches;
  };
  const FusionConfig configs[] = {
      {"none", false, false},
      {"macro", true, false},
      {"macro+cmp", true, true},
  };
  constexpr size_t kNumConfigs = sizeof(configs) / sizeof(configs[0]);
  constexpr size_t kReference = kNumConfigs - 1;  // macro+cmp, the default

  const std::vector<int> queries = ImplementedTpchQueries();
  const auto run = [&](int number, const FusionConfig& config) {
    QueryProgram q = BuildTpchQuery(number, *catalog);
    QueryRunOptions options;
    options.strategy = ExecutionStrategy::kBytecode;
    options.single_threaded = true;
    options.use_artifact_cache = false;
    options.translator.fuse_macro_ops = config.macro_ops;
    options.translator.fuse_cmp_branches = config.cmp_branches;
    return bench::ExecOnlySeconds(engine.Run(q, options)) * 1e3;
  };

  // samples[config][query] holds one execution time per round.
  std::vector<std::vector<std::vector<double>>> samples(
      kNumConfigs, std::vector<std::vector<double>>(queries.size()));
  for (int number : queries) {
    for (const FusionConfig& config : configs) run(number, config);  // warmup
  }
  for (int round = 0; round < kRounds; ++round) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t k = 0; k < kNumConfigs; ++k) {
        const size_t c = (k + static_cast<size_t>(round)) % kNumConfigs;
        samples[c][qi].push_back(run(queries[qi], configs[c]));
      }
    }
  }

  std::printf(
      "Fusion ablation (SF %g, bytecode mode, 1 thread, cache off, "
      "median of %d interleaved rounds, execution ms)\n",
      sf, kRounds);
  std::printf("%8s", "query");
  for (const FusionConfig& config : configs) {
    std::printf(" %12s %8s", config.label, "bc-ops");
  }
  std::printf("\n");
  std::vector<std::vector<double>> medians(kNumConfigs);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::printf("%8d", queries[qi]);
    for (size_t c = 0; c < kNumConfigs; ++c) {
      const double median = bench::Median(samples[c][qi]);
      medians[c].push_back(median);
      QueryProgram q = BuildTpchQuery(queries[qi], *catalog);
      TranslatorOptions translator;
      translator.fuse_macro_ops = configs[c].macro_ops;
      translator.fuse_cmp_branches = configs[c].cmp_branches;
      uint64_t ops = 0;
      for (const PipelineCompileCosts& cost :
           engine.MeasureCompileCosts(q, false, false, translator)) {
        ops += cost.bytecode_ops;
      }
      std::printf(" %12.2f %8llu", median, static_cast<unsigned long long>(ops));
    }
    std::printf("\n");
  }
  const double reference = bench::GeometricMean(medians[kReference]);
  std::printf("%8s", "geomean");
  for (size_t c = 0; c < kNumConfigs; ++c) {
    std::printf(" %12.2f %8s", bench::GeometricMean(medians[c]), "");
  }
  std::printf("\n%8s", "ratio");
  for (size_t c = 0; c < kNumConfigs; ++c) {
    std::printf(" %12.3f %8s", bench::GeometricMean(medians[c]) / reference,
                "");
  }
  std::printf(
      "\n\nratio = geomean / geomean(%s); above 1 means the config is slower "
      "than the default. Each switch stays only while its ratio shows a "
      "query-level gain.\n",
      configs[kReference].label);
  return 0;
}
