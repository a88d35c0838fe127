#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <vector>

#include "plan/plan.h"
#include "src/spans.h"

namespace perfbench {

/// Counts the compile-side probe collects over one plan.
struct CompileCounts {
  uint64_t ir_instructions = 0;
  uint64_t bytecode_ops = 0;
};

/// Runs `program` stage by stage on the Volcano baseline and returns its
/// rows: the benchmark's reference, which shares no code with the compiled
/// path past the plan. With `spans` set it also times the compile-side
/// layers on every pipeline, in the style of fig01_stage_breakdown:
/// "codegen.generate" (BindPipeline + GeneratePipeline),
/// "vm.translate" (TranslateToBytecode), "jit.compile_unopt" and
/// "jit.compile_opt" (JitCompile, each on a module from a fresh
/// "codegen.regenerate"), and "volcano.pipeline" for the reference run
/// itself; all are children of `parent` and tagged `query`.
std::vector<std::vector<int64_t>> ReferenceWalk(
    const aqe::QueryProgram& program, const aqe::Catalog& catalog,
    SpanLog* spans, int64_t parent, int64_t query, CompileCounts* counts);

/// Median round trip (µs) of a no-op task through TaskScheduler::Submit on a
/// fresh `workers`-thread scheduler: submit, wait until it ran, repeat.
double SchedRoundtripMicros(int workers, int tasks, SpanLog* spans);

/// Single-threaded hash-table costs at SF-sized key sets (ns per row):
/// JoinHashTable::Insert / Lookup over `keys` distinct shuffled keys, and
/// AggHashTable::FindOrInsert over `rows` rows spread over `keys` groups.
struct RuntimeCosts {
  double join_build_ns = 0;
  double join_probe_ns = 0;
  double agg_ns = 0;
  bool ok = false;  ///< every probe key found, one group per distinct key
};
RuntimeCosts ProbeRuntime(uint64_t keys, uint64_t rows, uint64_t seed,
                          SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
