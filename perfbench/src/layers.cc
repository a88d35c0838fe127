#include "src/layers.h"

#include <atomic>
#include <thread>

#include "codegen/query_compiler.h"
#include "common/timer.h"
#include "jit/jit_compiler.h"
#include "runtime/agg_hash_table.h"
#include "runtime/join_hash_table.h"
#include "runtime/runtime_registry.h"
#include "sched/scheduler.h"
#include "src/report.h"
#include "src/workloads.h"
#include "vm/translator.h"
#include "volcano/volcano.h"

namespace perfbench {

std::vector<std::vector<int64_t>> ReferenceWalk(
    const aqe::QueryProgram& program, const aqe::Catalog& catalog,
    SpanLog* spans, int64_t parent, int64_t query, CompileCounts* counts) {
  const aqe::RuntimeRegistry& registry = aqe::RuntimeRegistry::Global();
  std::unique_ptr<aqe::QueryContext> ctx = program.MakeContext(&catalog);
  for (const aqe::QueryProgram::Stage& stage : program.stages()) {
    if (stage.pipeline < 0) {
      stage.step(ctx.get());
      continue;
    }
    const aqe::PipelineSpec& spec =
        program.pipelines()[static_cast<size_t>(stage.pipeline)];
    if (spans != nullptr) {
      // Each compile mode gets its own freshly generated module, as the
      // engine's adaptive controller does.
      auto generate = [&](const char* span_name) {
        ScopedSpan span(spans, span_name, parent, query);
        aqe::PipelineBindings bindings =
            aqe::BindPipeline(program, spec, *ctx);
        return aqe::GeneratePipeline(spec, bindings);
      };
      aqe::GeneratedPipeline generated = generate("codegen.generate");
      counts->ir_instructions += generated.instructions;
      {
        ScopedSpan span(spans, "vm.translate", parent, query);
        aqe::BcProgram bytecode = aqe::TranslateToBytecode(
            *generated.mod->module().getFunction("worker"), registry);
        counts->bytecode_ops += bytecode.code.size();
      }
      for (aqe::JitMode mode :
           {aqe::JitMode::kUnoptimized, aqe::JitMode::kOptimized}) {
        aqe::GeneratedPipeline fresh = generate("codegen.regenerate");
        ScopedSpan span(spans,
                        mode == aqe::JitMode::kOptimized ? "jit.compile_opt"
                                                         : "jit.compile_unopt",
                        parent, query);
        aqe::JitCompile(std::move(*fresh.mod), mode, registry);
      }
    }
    ScopedSpan span(spans, "volcano.pipeline", parent, query);
    aqe::RunPipelineVolcano(program, spec, ctx.get());
  }
  return std::move(ctx->result);
}

double SchedRoundtripMicros(int workers, int tasks, SpanLog* spans) {
  aqe::TaskScheduler scheduler(workers);
  std::vector<double> micros;
  micros.reserve(static_cast<size_t>(tasks));
  ScopedSpan span(spans, "sched.roundtrips", -1, -1);
  for (int i = 0; i < tasks; ++i) {
    std::atomic<bool> ran{false};
    aqe::Timer timer;
    scheduler.Submit(aqe::MakeClosureTask(
        [&ran](int) { ran.store(true, std::memory_order_release); }));
    while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
    micros.push_back(timer.ElapsedMicros());
  }
  return Median(micros);
}

RuntimeCosts ProbeRuntime(uint64_t keys, uint64_t rows, uint64_t seed,
                          SpanLog* spans) {
  Rng rng(seed);
  std::vector<int64_t> build_keys(keys);
  for (uint64_t i = 0; i < keys; ++i) build_keys[i] = static_cast<int64_t>(i * 4 + 1);
  rng.Shuffle(&build_keys);
  std::vector<int64_t> row_keys(rows);
  for (int64_t& key : row_keys) key = build_keys[rng.Below(keys)];

  aqe::runtime_internal::SetThreadIndex(0);
  RuntimeCosts costs;
  aqe::JoinHashTable join(keys, /*payload_slots=*/1);
  {
    ScopedSpan span(spans, "runtime.join_build", -1, -1);
    aqe::Timer timer;
    for (int64_t key : build_keys) {
      *static_cast<int64_t*>(join.Insert(key)) = key;
    }
    costs.join_build_ns = timer.ElapsedSeconds() * 1e9 / keys;
  }
  {
    ScopedSpan span(spans, "runtime.join_probe", -1, -1);
    aqe::Timer timer;
    int64_t matched = 0;
    for (int64_t key : row_keys) matched += join.Lookup(key) != nullptr;
    costs.join_probe_ns = timer.ElapsedSeconds() * 1e9 / rows;
    costs.ok = matched == static_cast<int64_t>(rows);
  }
  {
    ScopedSpan span(spans, "runtime.agg", -1, -1);
    aqe::AggHashTable agg(/*payload_slots=*/2, {0, 0});
    aqe::Timer timer;
    for (int64_t key : row_keys) {
      auto* slots = static_cast<int64_t*>(agg.FindOrInsert(key));
      slots[0] += 1;
      slots[1] += key;
    }
    costs.agg_ns = timer.ElapsedSeconds() * 1e9 / rows;
    costs.ok = costs.ok && agg.size() <= keys;
  }
  return costs;
}

}  // namespace perfbench
