#ifndef AQE_VM_TRANSLATOR_H_
#define AQE_VM_TRANSLATOR_H_

#include <memory>

#include <llvm/IR/Function.h>

#include "runtime/runtime_registry.h"
#include "vm/bytecode.h"
#include "vm/register_allocator.h"

namespace aqe {

/// Options for LLVM-IR-to-bytecode translation.
struct TranslatorOptions {
  RegAllocStrategy strategy = RegAllocStrategy::kLoopAware;
  /// Window size (in blocks) for RegAllocStrategy::kWindow.
  int window_size = 16;
  /// Enables the §IV-F macro-op fusion (overflow-check sequences and
  /// GEP+load/store pairs collapse to one VM instruction each).
  bool fuse_macro_ops = true;
  /// Enables the compare-and-branch peephole (extends §IV-F): a single-use
  /// icmp/fcmp feeding the block's condbr fuses into one br_<pred>_<ty>
  /// superinstruction. A condbr on a single-use conjunction (`and i1` tree)
  /// of block-local predicates is split into a short-circuit chain of
  /// branches, so each fusable compare becomes its own superinstruction and
  /// the first failing term exits the row early; the JIT keeps the original
  /// and-tree IR (which LLVM vectorizes). Independent of fuse_macro_ops so
  /// the ablation bench can isolate its effect.
  bool fuse_cmp_branches = true;
};

/// Process-wide cumulative translation counters, accumulated by every
/// TranslateToBytecode call (each BcProgram also carries its own per-program
/// counts). The engine's observability snapshot reports these; benches
/// reset them between phases so warm-phase numbers stay clean.
struct TranslatorCounters {
  uint64_t programs = 0;            ///< translations performed
  uint64_t bytecode_ops = 0;        ///< VM instructions emitted
  uint64_t fused_instructions = 0;  ///< LLVM instructions folded by fusion
  uint64_t fused_cmp_branches = 0;
};

TranslatorCounters TranslatorCountersSnapshot();
void ResetTranslatorCounters();

/// Translates `fn` into a BcProgram following Fig 9: compute liveness and
/// block order, then translate block by block, allocating registers as
/// values become live, folding subsumed instruction sequences, propagating
/// phi values at block ends, and releasing registers whose values died.
/// Linear in the size of the function.
///
/// Calls must target functions registered in `registry` (resolved here, at
/// translation time, so the interpreter just jumps through the immediate).
BcProgram TranslateToBytecode(const llvm::Function& fn,
                              const RuntimeRegistry& registry,
                              const TranslatorOptions& options = {});

}  // namespace aqe

#endif  // AQE_VM_TRANSLATOR_H_
