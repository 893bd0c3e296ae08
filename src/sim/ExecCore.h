//===- sim/ExecCore.h - The shared functional execution core --------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One execution core, three modes:
///
///   Timing       one instruction per call, reporting control/memory effects
///                through ExecOutcome (the timing pipelines run this at
///                fetch).
///   FastForward  batched, purely architectural: no cache, predictor or
///                timing side effects (sampled simulation's skip level).
///   Warm         batched architectural execution that also pushes every
///                memory access through the cache/TLB hierarchy and trains
///                the branch predictor (sampled simulation's functional-
///                warming level).
///
/// Dispatch is one switch over the opcode, which -Wswitch checks against
/// the Opcode enum. The core is internal to the simulator: it sits in a
/// header so the timing fetch loop inlines its one-instruction step
/// (executeStepInline) instead of calling out of line per fetched
/// instruction. Everyone else calls the wrappers in sim/Executor.h.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_EXECCORE_H
#define SSP_SIM_EXECCORE_H

#include "branch/BranchPredictor.h"
#include "cache/Cache.h"
#include "sim/Executor.h"

#include <bit>
#include <cassert>

namespace ssp::sim::detail {

inline double asDouble(uint64_t Bits) { return std::bit_cast<double>(Bits); }
inline uint64_t asBits(double D) { return std::bit_cast<uint64_t>(D); }

enum class ExecMode { Timing, FastForward, Warm };

/// The shared execution core. In Timing mode it executes exactly one
/// instruction and fills \p Out; in the batch modes it loops until
/// \p MaxInsts instructions have executed or the program halts (setting
/// \p Halted), and returns the number executed. The batch modes run only
/// the non-speculative main thread: chk.c is always passed
/// FreeContextAvailable == false by the wrappers, so triggers never fire
/// and no speculative state exists — though a batch interval may start
/// mid-stub (the detailed level can hand over between chk.c and rfi), so
/// the stub opcodes still execute architecturally.
template <ExecMode M>
[[gnu::always_inline]] inline uint64_t
execCore(ThreadContext &Ctx, const ir::LinkedProgram &LP,
                  mem::SimMemory &Mem, bool Speculative,
                  bool FreeContextAvailable, ExecOutcome *Out,
                  cache::CacheHierarchy *Cache, branch::BranchPredictor *Bpred,
                  uint64_t *Now, uint64_t MaxInsts, bool *Halted) {
  constexpr bool Timing = M == ExecMode::Timing;
  constexpr bool Warm = M == ExecMode::Warm;
  assert((Timing || (!Speculative && Halted)) &&
         "batch modes run the main thread only");

  uint64_t *Regs = Ctx.Regs;
  uint64_t N = 0;

  assert(Ctx.PC < LP.size() && "PC out of range");
  const ir::DecodedInst *D = &LP.decoded(Ctx.PC);
  uint32_t NextPC = Ctx.PC + 1;

  // All register reads and writes go through the predecoded dense indices:
  // one array access, no RegClass dispatch. Predicates are stored as 0/1
  // and the hardwired r0/p0 slots hold their constants, so reads need no
  // special cases; writes to hardwired destinations were stripped at
  // decode (WDst == NoReg).
  auto S1 = [&] { return Regs[D->Src1]; };
  auto S2 = [&] { return Regs[D->Src2]; };
  auto WR = [&](uint64_t V) {
    if (D->WDst != ir::DecodedInst::NoReg)
      Regs[D->WDst] = D->DstIsPred ? (V != 0 ? 1 : 0) : V;
  };
  // Functional warming: evolve replacement state (LRU arrays, TLB) through
  // the state-only fast path. No latency is modeled and the load profile is
  // not collected — per-PC miss statistics stay exact-per-detail-interval
  // under sampling. Warming behaves as a serial reference trace: each access
  // completes (its line installed) before the next starts, so no line is
  // still in flight when the next detailed interval begins.
  auto Touch = [&](uint64_t Addr) {
    if constexpr (Warm)
      Cache->warmAccess(Addr, LP.at(Ctx.PC).Sid, /*Tid=*/0);
    else
      (void)Addr;
  };

  for (;;) {
    switch (D->Op) {

    case ir::Opcode::Nop:
      break;

    case ir::Opcode::Add:
      WR(S1() + S2());
      break;
    case ir::Opcode::Sub:
      WR(S1() - S2());
      break;
    case ir::Opcode::Mul:
      WR(S1() * S2());
      break;
    case ir::Opcode::And:
      WR(S1() & S2());
      break;
    case ir::Opcode::Or:
      WR(S1() | S2());
      break;
    case ir::Opcode::Xor:
      WR(S1() ^ S2());
      break;
    case ir::Opcode::Shl:
      WR(S1() << (S2() & 63));
      break;
    case ir::Opcode::Shr:
      WR(S1() >> (S2() & 63));
      break;

    case ir::Opcode::AddI:
      WR(S1() + static_cast<uint64_t>(D->Imm));
      break;
    case ir::Opcode::MulI:
      WR(S1() * static_cast<uint64_t>(D->Imm));
      break;
    case ir::Opcode::ShlI:
      WR(S1() << (static_cast<uint64_t>(D->Imm) & 63));
      break;
    case ir::Opcode::AndI:
      WR(S1() & static_cast<uint64_t>(D->Imm));
      break;
    case ir::Opcode::OrI:
      WR(S1() | static_cast<uint64_t>(D->Imm));
      break;

    case ir::Opcode::Mov:
      WR(S1());
      break;
    case ir::Opcode::MovI:
      WR(static_cast<uint64_t>(D->Imm));
      break;

    case ir::Opcode::Cmp:
      WR(ir::evalCond(D->Cond, static_cast<int64_t>(S1()),
                  static_cast<int64_t>(S2()))
             ? 1
             : 0);
      break;
    case ir::Opcode::CmpI:
      WR(ir::evalCond(D->Cond, static_cast<int64_t>(S1()), D->Imm) ? 1 : 0);
      break;

    case ir::Opcode::FAdd:
      WR(asBits(asDouble(S1()) + asDouble(S2())));
      break;
    case ir::Opcode::FSub:
      WR(asBits(asDouble(S1()) - asDouble(S2())));
      break;
    case ir::Opcode::FMul:
      WR(asBits(asDouble(S1()) * asDouble(S2())));
      break;
    case ir::Opcode::XToF:
      WR(asBits(static_cast<double>(static_cast<int64_t>(S1()))));
      break;
    case ir::Opcode::FToX:
      WR(static_cast<uint64_t>(static_cast<int64_t>(asDouble(S1()))));
      break;

    case ir::Opcode::Load:
    case ir::Opcode::LoadF: {
      uint64_t Addr = S1() + static_cast<uint64_t>(D->Imm);
      uint64_t Value;
      if constexpr (Timing) {
        Out->IsMem = true;
        Out->IsLoad = true;
        Out->MemAddr = Addr;
        if (Speculative) {
          bool Mapped = false;
          Value = Mem.readMaybe(Addr, Mapped);
          Out->WildLoad = !Mapped;
        } else {
          Value = Mem.read(Addr);
        }
      } else {
        Value = Mem.read(Addr);
        Touch(Addr);
      }
      WR(Value);
      break;
    }
    case ir::Opcode::Store:
    case ir::Opcode::StoreF: {
      assert(!Speculative && "speculative thread attempted a store");
      uint64_t Addr = S1() + static_cast<uint64_t>(D->Imm);
      if constexpr (Timing) {
        Out->IsMem = true;
        Out->IsStore = true;
        Out->MemAddr = Addr;
      } else {
        Touch(Addr);
      }
      Mem.write(Addr, S2());
      break;
    }
    case ir::Opcode::Prefetch: {
      // Non-binding, non-faulting touch: affects only cache state.
      uint64_t Addr = S1() + static_cast<uint64_t>(D->Imm);
      if constexpr (Timing) {
        Out->IsMem = true;
        Out->MemAddr = Addr;
      } else {
        Touch(Addr);
      }
      break;
    }

    case ir::Opcode::Br: {
      bool Taken = S1() != 0;
      if constexpr (Timing) {
        Out->Kind = CtrlKind::Branch;
        Out->Taken = Taken;
      }
      if constexpr (Warm)
        Bpred->predictAndTrainDirection(Ctx.PC, /*Tid=*/0, Taken);
      if (Taken)
        NextPC = D->Target;
      break;
    }
    case ir::Opcode::Jmp:
      if constexpr (Timing)
        Out->Kind = CtrlKind::DirectJump;
      NextPC = D->Target;
      break;
    case ir::Opcode::Call:
      if constexpr (Timing)
        Out->Kind = CtrlKind::DirectJump;
      Ctx.CallStack.push_back(Ctx.PC + 1);
      NextPC = D->Target;
      break;
    case ir::Opcode::CallInd: {
      uint64_t FuncIdx = S1();
      assert(FuncIdx < LP.numFuncs() && "bad indirect call target");
      Ctx.CallStack.push_back(Ctx.PC + 1);
      NextPC = LP.funcEntry(static_cast<uint32_t>(FuncIdx));
      if constexpr (Timing)
        Out->Kind = CtrlKind::IndirectJump;
      if constexpr (Warm)
        Bpred->predictAndTrainTarget(Ctx.PC, NextPC);
      break;
    }
    case ir::Opcode::Ret:
      assert(!Ctx.CallStack.empty() && "ret with empty call stack");
      NextPC = Ctx.CallStack.back();
      Ctx.CallStack.pop_back();
      if constexpr (Timing)
        Out->Kind = CtrlKind::IndirectJump;
      if constexpr (Warm)
        Bpred->predictAndTrainTarget(Ctx.PC, NextPC);
      break;
    case ir::Opcode::Halt:
      if constexpr (Timing) {
        Out->Kind = CtrlKind::Halt;
        NextPC = Ctx.PC; // Parked.
        break;
      } else {
        // The halt counts as executed; the PC parks on it, exactly as the
        // detailed level leaves it.
        *Halted = true;
        return N + 1;
      }

    case ir::Opcode::ChkC:
      if (FreeContextAvailable) {
        if constexpr (Timing)
          Out->Kind = CtrlKind::ChkCFired;
        Ctx.ResumeStack.push_back(Ctx.PC + 1);
        NextPC = D->Target;
      } else if constexpr (Timing) {
        Out->Kind = CtrlKind::ChkCNop;
      }
      break;
    case ir::Opcode::Rfi:
      // Reachable in batch mode when a detail interval hands over inside
      // a stub: the resume address pushed by the (detailed) chk.c is
      // still on the architectural resume stack.
      assert(!Ctx.ResumeStack.empty() && "rfi with empty resume stack");
      NextPC = Ctx.ResumeStack.back();
      Ctx.ResumeStack.pop_back();
      if constexpr (Timing)
        Out->Kind = CtrlKind::RfiReturn;
      break;
    case ir::Opcode::CopyToLIB:
      assert(D->Target < ir::LIBSlots && "LIB slot out of range");
      Ctx.LIBStage[D->Target] = S1();
      break;
    case ir::Opcode::CopyToLIBI:
      assert(D->Target < ir::LIBSlots && "LIB slot out of range");
      Ctx.LIBStage[D->Target] = static_cast<uint64_t>(D->Imm);
      break;
    case ir::Opcode::CopyFromLIB:
      assert(D->Target < ir::LIBSlots && "LIB slot out of range");
      WR(Ctx.LIBIn[D->Target]);
      break;
    case ir::Opcode::Spawn:
      // Batch modes drop the request (functionally equivalent to finding
      // no free context); only the timing level materializes threads.
      if constexpr (Timing) {
        Out->Kind = CtrlKind::SpawnPoint;
        Out->HasSpawn = true;
        Out->SpawnTargetAddr = D->Target;
      }
      break;
    case ir::Opcode::KillThread:
      assert(Timing && "kill.thread outside a speculative timing thread");
      if constexpr (Timing) {
        Out->Kind = CtrlKind::Kill;
        NextPC = Ctx.PC; // Parked.
      }
      break;
    }

    // Shared per-instruction epilogue.
    Ctx.PC = NextPC;
    ++N;
    if constexpr (Timing)
      return N;
    if constexpr (Warm)
      ++*Now; // One nominal cycle per instruction.
    if (N >= MaxInsts)
      return N;
    assert(Ctx.PC < LP.size() && "PC out of range");
    D = &LP.decoded(Ctx.PC);
    NextPC = Ctx.PC + 1;
  }
}

/// executeStep's body: one Timing step, every field of \p Out reset first.
[[gnu::always_inline]] inline void
executeStepInline(ThreadContext &Ctx, const ir::LinkedProgram &LP,
                  mem::SimMemory &Mem, bool Speculative,
                  bool FreeContextAvailable, ExecOutcome &Out) {
  Out.Kind = CtrlKind::Fall;
  Out.Taken = false;
  Out.IsMem = false;
  Out.IsLoad = false;
  Out.IsStore = false;
  Out.WildLoad = false;
  Out.MemAddr = 0;
  Out.HasSpawn = false;
  Out.SpawnTargetAddr = 0;
  execCore<ExecMode::Timing>(Ctx, LP, Mem, Speculative, FreeContextAvailable,
                             &Out, nullptr, nullptr, nullptr, /*MaxInsts=*/1,
                             nullptr);
}

} // namespace ssp::sim::detail

#endif // SSP_SIM_EXECCORE_H
