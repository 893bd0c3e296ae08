//===- sim/ThreadContext.h - Architectural state of one HW context --------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The architectural state of one hardware thread context: the per-thread
/// register files of Table 1, the PC, the call/return stacks, and this
/// thread's view of the live-in buffer (the spill area of the Register
/// Stack Engine backing store that the paper uses for inter-thread live-in
/// transfer, Section 3.4.2).
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_THREADCONTEXT_H
#define SSP_SIM_THREADCONTEXT_H

#include "ir/Opcode.h"
#include "ir/Reg.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace ssp::sim {

/// Architectural state of one hardware thread context.
struct ThreadContext {
  /// Dense index of p0 within Regs (the first predicate register).
  static constexpr unsigned P0Index = ir::NumIntRegs + ir::NumFPRegs;

  /// All register files of Table 1 in one dense array, indexed by
  /// ir::Reg::denseIndex(): r0..r127, then f0..f127 (raw bits), then
  /// p0..p63 (stored as 0/1). Invariants: Regs[0] == 0 (r0 hardwired to
  /// zero) and Regs[P0Index] == 1 (p0 hardwired true) — writes to the
  /// hardwired slots are dropped, so reads never need to special-case.
  uint64_t Regs[ir::Reg::NumDenseIndices];
  uint32_t PC = 0;

  std::vector<uint32_t> CallStack;   ///< Return addresses for call/ret.
  std::vector<uint32_t> ResumeStack; ///< Resume addresses for chk.c/rfi.

  /// Live-in frame handed to this thread when it was spawned.
  uint64_t LIBIn[ir::LIBSlots];
  /// Staged outgoing live-ins, written by CopyToLIB, snapshotted by Spawn.
  uint64_t LIBStage[ir::LIBSlots];

  ThreadContext() { reset(); }

  void reset() {
    std::memset(Regs, 0, sizeof(Regs));
    Regs[P0Index] = 1; // p0 is hardwired true.
    resetControl();
  }

  /// Resets everything but the register files.
  void resetControl() {
    PC = 0;
    CallStack.clear();
    ResumeStack.clear();
    std::memset(LIBIn, 0, sizeof(LIBIn));
    std::memset(LIBStage, 0, sizeof(LIBStage));
  }

  uint64_t readInt(unsigned N) const { return Regs[N]; }
  void writeInt(unsigned N, uint64_t V) {
    if (N != 0)
      Regs[N] = V;
  }
  uint64_t readFP(unsigned N) const { return Regs[ir::NumIntRegs + N]; }
  void writeFP(unsigned N, uint64_t V) { Regs[ir::NumIntRegs + N] = V; }
  bool readPred(unsigned N) const { return Regs[P0Index + N] != 0; }
  void writePred(unsigned N, bool V) {
    if (N != 0)
      Regs[P0Index + N] = V ? 1 : 0;
  }
};

} // namespace ssp::sim

#endif // SSP_SIM_THREADCONTEXT_H
