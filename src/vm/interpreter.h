#ifndef AQE_VM_INTERPRETER_H_
#define AQE_VM_INTERPRETER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "vm/bytecode.h"

namespace aqe {

/// True when the direct-threaded (computed-goto) engine was compiled in
/// (GCC/Clang label-address extension).
bool VmThreadedDispatchAvailable();

/// True when AQE_VM_PROFILE is set (and not "0"): every interpreted dispatch
/// is counted per opcode and the hot-order list is emitted at process exit —
/// to stderr, or to the file the variable names. Profiled execution always
/// uses the (counting) switch engine; opcode frequencies are
/// engine-independent, and the hot loops stay count-free.
bool VmProfileEnabled();

/// The dispatch counts collected so far, hottest first, one
/// "<count> <opcode>" line each. This is the list vm/interpreter_ops.inc's
/// handler layout is ordered by (see the profile-guided layout note there).
std::string VmProfileHotOrder();

/// Programmatic equivalent of AQE_VM_PROFILE: while enabled, interpreted
/// execution routes through the counting switch engine and bumps the
/// per-opcode dispatch counters. No atexit dump; the engine's metrics
/// snapshot reads VmProfileCounts() instead. Thread-safe; affects morsels
/// started after the switch.
void VmSetProfileCounting(bool enabled);

/// True when either AQE_VM_PROFILE or VmSetProfileCounting enables counting.
bool VmProfileCountingEnabled();

struct VmOpcodeCount {
  const char* opcode;  ///< static OpcodeName string
  uint64_t count;
};

/// Non-zero per-opcode dispatch counts, in opcode order.
std::vector<VmOpcodeCount> VmProfileCounts();

/// Zeroes the dispatch counters (phase-delta hygiene).
void VmResetProfileCounts();

/// Resolves kDefault to the engine selected at compile time via the
/// AQE_VM_DISPATCH CMake switch (THREADED where available, else SWITCH);
/// kSwitch/kThreaded pass through (kThreaded falls back to kSwitch when the
/// extension is unavailable).
VmDispatch VmResolveDispatch(VmDispatch dispatch);

/// Executes a translated program with the given arguments (each argument is
/// one 8-byte register slot: integers zero/sign-agnostic raw bits, pointers
/// as addresses, doubles bit-cast). Returns the raw 8-byte slot of the `ret`
/// instruction (0 for `ret_void`); callers mask to the function's return
/// width.
///
/// `dispatch` picks the interpreter loop; kDefault is the compile-time
/// default. The dispatch belongs to the call, not the program, so one
/// cached program serves callers of either engine. Both engines execute
/// the identical handler list (vm/interpreter_ops.inc) and produce
/// bit-identical results.
///
/// The register file lives on the interpreter's stack when it fits (§IV-A);
/// larger files fall back to the heap.
uint64_t VmExecute(const BcProgram& program, const uint64_t* args,
                   int num_args, VmDispatch dispatch = VmDispatch::kDefault);

}  // namespace aqe

#endif  // AQE_VM_INTERPRETER_H_
