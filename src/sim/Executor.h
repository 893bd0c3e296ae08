//===- sim/Executor.h - Functional instruction execution ------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The functional executor advances a thread's architectural state by one
/// instruction. The timing cores run it at fetch time (functional-first
/// simulation): fetch therefore always follows the true execution path, and
/// front-end penalties for mispredictions and exceptions are modeled as
/// fetch-blocking intervals rather than wrong-path execution.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_EXECUTOR_H
#define SSP_SIM_EXECUTOR_H

#include "ir/Program.h"
#include "mem/SimMemory.h"
#include "sim/ThreadContext.h"

namespace ssp::branch {
class BranchPredictor;
} // namespace ssp::branch
namespace ssp::cache {
class CacheHierarchy;
} // namespace ssp::cache

namespace ssp::sim {

/// Control effect of one functionally executed instruction.
enum class CtrlKind : uint8_t {
  Fall,         ///< Fall through to PC+1.
  Branch,       ///< Conditional branch; see ExecOutcome::Taken.
  DirectJump,   ///< jmp / call: statically known target.
  IndirectJump, ///< ret / calli: target from stack or register.
  ChkCFired,    ///< chk.c raised the spawn exception; redirect to the stub.
  ChkCNop,      ///< chk.c saw no free context; falls through.
  RfiReturn,    ///< rfi back to the interrupted PC.
  SpawnPoint,   ///< spawn executed; request payload captured.
  Halt,         ///< Program finished (main thread).
  Kill          ///< Speculative thread terminated itself.
};

/// Everything the timing model needs to know about one executed instruction.
struct ExecOutcome {
  CtrlKind Kind = CtrlKind::Fall;
  bool Taken = false; ///< For Kind == Branch.

  bool IsMem = false;   ///< Accesses the data cache (load/store/prefetch).
  bool IsLoad = false;  ///< Writes a register from memory.
  bool IsStore = false;
  bool WildLoad = false; ///< Speculative load touched unmapped memory.
  uint64_t MemAddr = 0;

  /// A spawn executed. Its live-in frame is the context's LIBStage as this
  /// step leaves it; a caller that acts on the spawn later snapshots the
  /// frame before the next step can stage another.
  bool HasSpawn = false;
  uint32_t SpawnTargetAddr = 0;
};

/// Executes the instruction at \p Ctx.PC, updating \p Ctx (including PC).
///
/// \param Speculative  thread is a prefetch thread: loads never fault and
///                     stores are forbidden.
/// \param FreeContextAvailable  consulted by chk.c to decide whether the
///                     spawn exception fires.
/// \param Out          filled with the control/memory effects.
void executeStep(ThreadContext &Ctx, const ir::LinkedProgram &LP,
                 mem::SimMemory &Mem, bool Speculative,
                 bool FreeContextAvailable, ExecOutcome &Out);

/// Result of one batched functional interval (fastForward / warmForward).
struct FunctionalResult {
  uint64_t Insts = 0; ///< Instructions executed (including a final halt).
  bool Halted = false; ///< The program's halt was reached in this interval.
};

/// Executes up to \p MaxInsts instructions of the (main, non-speculative)
/// thread purely architecturally: registers, memory and control flow
/// advance, but no cache, TLB or branch-predictor state is touched and no
/// timing exists. chk.c never fires (functionally it behaves as if no
/// context were free), so no speculative work happens. Stops early at
/// halt, leaving \p Ctx parked on the halt instruction.
FunctionalResult fastForward(ThreadContext &Ctx, const ir::LinkedProgram &LP,
                             mem::SimMemory &Mem, uint64_t MaxInsts);

/// fastForward plus functional warming: every memory access goes through
/// \p Cache (filling lines, the TLB and the fill buffer) and every
/// conditional branch / indirect transfer trains \p Bpred, so the next
/// detailed interval starts from warm microarchitectural state. \p Now
/// advances one (nominal) cycle per instruction so the cache's
/// time-based structures age plausibly.
FunctionalResult warmForward(ThreadContext &Ctx, const ir::LinkedProgram &LP,
                             mem::SimMemory &Mem,
                             cache::CacheHierarchy &Cache,
                             branch::BranchPredictor &Bpred, uint64_t &Now,
                             uint64_t MaxInsts);

} // namespace ssp::sim

#endif // SSP_SIM_EXECUTOR_H
