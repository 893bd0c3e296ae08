//===- codegen/SSPCodeGen.cpp - SSP-enabled binary rewriting --------------===//

#include "codegen/SSPCodeGen.h"

#include "analysis/StreamPatterns.h"
#include "ir/IRBuilder.h"
#include "support/Assert.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <set>

using namespace ssp;
using namespace ssp::codegen;
using namespace ssp::analysis;
using namespace ssp::ir;

namespace {

/// Registers referenced anywhere in the emitted slice (sources, dests and
/// live-ins), used to pick scratch registers for the chain budget.
std::set<Reg> collectUsedRegs(const Program &P, const AdaptedLoad &AL) {
  std::set<Reg> Used;
  auto AddInst = [&](const InstRef &I) {
    const Instruction &Inst = I.get(P);
    Inst.forEachUse([&](Reg R) { Used.insert(R); });
    Reg D = Inst.def();
    if (D.isValid())
      Used.insert(D);
  };
  for (const InstRef &I : AL.Sched.Prologue)
    AddInst(I);
  for (const InstRef &I : AL.Sched.Critical)
    AddInst(I);
  for (const InstRef &I : AL.Sched.NonCritical)
    AddInst(I);
  for (const sched::ScheduledSlice &ES : AL.ExtraSections)
    for (const std::vector<InstRef> *Seq :
         {&ES.Prologue, &ES.Critical, &ES.NonCritical})
      for (const InstRef &I : *Seq)
        AddInst(I);
  for (Reg R : AL.Slice.LiveIns)
    Used.insert(R);
  for (const InstRef &T : AL.Slice.TargetLoads)
    AddInst(T);
  return Used;
}

/// True when emitSliceInst would copy this opcode into a slice (control
/// transfers and stores are dropped).
bool sliceEmittable(Opcode Op) {
  switch (Op) {
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Call:
  case Opcode::CallInd:
  case Opcode::Ret:
  case Opcode::Halt:
  case Opcode::ChkC:
  case Opcode::Rfi:
  case Opcode::Spawn:
  case Opcode::KillThread:
  case Opcode::Nop:
  case Opcode::Store:
  case Opcode::StoreF:
    return false;
  default:
    return true;
  }
}

Reg pickScratchInt(const std::set<Reg> &Used) {
  for (int N = NumIntRegs - 1; N > 0; --N) {
    Reg R = ireg(static_cast<unsigned>(N));
    if (!Used.count(R))
      return R;
  }
  ssp_unreachable("no free integer register for the chain budget");
}

Reg pickScratchPred(const std::set<Reg> &Used) {
  for (int N = NumPredRegs - 1; N > 0; --N) {
    Reg R = preg(static_cast<unsigned>(N));
    if (!Used.count(R))
      return R;
  }
  ssp_unreachable("no free predicate register for the chain budget");
}

/// Emits one slice-member instruction into the current block, dropping
/// control transfers (if-conversion; see header comment).
void emitSliceInst(IRBuilder &B, const Program &Src, const InstRef &Ref,
                   unsigned &Count) {
  const Instruction &I = Ref.get(Src);
  // Control transfers are speculated through (if-conversion); stores are
  // the no-store invariant of Section 2 and never enter a p-slice.
  if (!sliceEmittable(I.Op))
    return;
  Instruction Copy = I;
  Copy.Id = 0; // Reassigned by emit().
  B.emit(Copy);
  ++Count;
}

} // namespace

Program ssp::codegen::rewriteWithSlices(const Program &Orig,
                                        const std::vector<AdaptedLoad> &Loads,
                                        RewriteInfo *Info,
                                        verify::AdaptationManifest *Manifest,
                                        bool EnableStreams) {
  Program New = Orig.clone();
  IRBuilder B(New);
  RewriteInfo Stats;
  if (Manifest)
    *Manifest = verify::AdaptationManifest();

  // Trigger insertions are deferred so that block instruction indices from
  // the plans (computed on the original layout) stay valid. Key: (func,
  // block) -> insertions; each remembers which manifest slice it belongs
  // to (and whether it is a restart trigger) so the chk.c static ids
  // assigned at insertion time can be recorded for attribution joins.
  struct PendingTrigger {
    uint32_t Idx = 0;       ///< Instruction index within the block.
    uint32_t Stub = 0;      ///< Stub block the chk.c targets.
    int SliceIdx = -1;      ///< Manifest slice index (-1: no manifest).
    bool Restart = false;   ///< Chain restart trigger (vs cut-set).
  };
  std::map<std::pair<uint32_t, uint32_t>, std::vector<PendingTrigger>>
      PendingTriggers;

  for (const AdaptedLoad &AL : Loads) {
    if (!AL.Slice.Valid || AL.Plan.Triggers.empty())
      continue;
    uint32_t Func = AL.Plan.Triggers.front().Where.Func;
    B.setFunction(Func);

    bool Chaining = AL.Sched.Model == sched::SPModel::Chaining;
    bool HasPrologue = Chaining && !AL.Sched.Prologue.empty();

    // LIB slot layouts. The stub stages the slice live-ins for the first
    // spawned thread (the prologue when present, else the first chain
    // link); the prologue re-stages the chain live-ins for the chain.
    std::vector<Reg> ChainLiveIns = AL.Sched.ChainLiveIns;
    std::vector<Reg> StubLiveIns =
        HasPrologue || !Chaining ? AL.Slice.LiveIns : ChainLiveIns;

    // Widen the live-in lists with uses that are upward-exposed in the
    // straight-line emission order. The slicer resolves a loop-carried use
    // against the in-slice definition from the previous iteration, so the
    // register is not in its live-in set; but once the slice is laid out
    // as a straight line the first use precedes every definition and would
    // read the spawned thread's zeroed register file. The main thread
    // holds the wanted value at trigger time, so such registers are
    // marshalled through the LIB like any other live-in.
    auto AppendExposed = [&](std::vector<Reg> &LiveIns,
                             std::initializer_list<
                                 const std::vector<InstRef> *>
                                 Seqs,
                             const std::vector<InstRef> *PrefTargets,
                             const std::vector<Reg> &TrailingUses) {
      std::set<Reg> Live(LiveIns.begin(), LiveIns.end());
      std::set<Reg> Defined;
      auto Use = [&](Reg R) {
        if (!R.isValid() || Live.count(R) || Defined.count(R))
          return;
        if (R.Num == 0 &&
            (R.Cls == RegClass::Int || R.Cls == RegClass::Pred))
          return; // Hardwired r0/p0 read the same in every thread.
        Live.insert(R);
        LiveIns.push_back(R);
      };
      for (const std::vector<InstRef> *Seq : Seqs)
        for (const InstRef &Ref : *Seq) {
          const Instruction &I = Ref.get(New);
          if (!sliceEmittable(I.Op))
            continue;
          I.forEachUse(Use);
          Reg D = I.def();
          if (D.isValid())
            Defined.insert(D);
        }
      if (PrefTargets)
        for (const InstRef &T : *PrefTargets)
          Use(T.get(New).Src1);
      for (Reg R : TrailingUses)
        Use(R);
    };
    if (Chaining) {
      // Header + fallthrough body run with only ChainLiveIns loaded.
      AppendExposed(ChainLiveIns, {&AL.Sched.Critical, &AL.Sched.NonCritical},
                    &AL.Slice.TargetLoads, {});
      if (HasPrologue)
        // The prologue must produce every chain live-in before its spawn;
        // ones it neither loads nor computes come from the stub.
        AppendExposed(StubLiveIns, {&AL.Sched.Prologue}, nullptr,
                      ChainLiveIns);
      else
        StubLiveIns = ChainLiveIns;
    } else {
      AppendExposed(StubLiveIns, {&AL.Sched.NonCritical},
                    &AL.Slice.TargetLoads, {});
      // Extra sections re-load the full live-in set, so each only needs
      // its own upward-exposed uses covered.
      for (size_t SI = 0; SI < AL.ExtraSections.size(); ++SI)
        AppendExposed(StubLiveIns, {&AL.ExtraSections[SI].NonCritical},
                      SI < AL.ExtraTargets.size() ? &AL.ExtraTargets[SI]
                                                  : &AL.Slice.TargetLoads,
                      {});
    }

    // The LIB is finite; an adaptation whose live-ins cannot be marshalled
    // (plus one slot for the trip budget) is dropped rather than emitted
    // with threads reading unstaged registers.
    if (StubLiveIns.size() + 1 > LIBSlots ||
        ChainLiveIns.size() + 1 > LIBSlots)
      continue;
    const uint32_t BudgetSlot = static_cast<uint32_t>(ChainLiveIns.size());

    // A chain must be bounded: gate on the slice's own condition when it
    // was scheduled, otherwise on the LIB trip budget.
    bool UseBudget =
        Chaining && (AL.Sched.PredictCondition || !AL.Sched.HasConditionBranch);

    std::set<Reg> Used = collectUsedRegs(New, AL);
    Reg BudgetReg, BudgetPred;
    if (UseBudget) {
      BudgetReg = pickScratchInt(Used);
      BudgetPred = pickScratchPred(Used);
    }

    // Emits the non-critical body: scheduled instructions, inner-loop
    // members unrolled InnerUnroll times total (the speculative thread
    // walks several inner-loop steps, e.g. a collision chain), then one
    // prefetch per targeted delinquent address.
    auto EmitBodyAndPrefetches = [&]() {
      std::set<InstRef> Inner(AL.Sched.InnerLoopMembers.begin(),
                              AL.Sched.InnerLoopMembers.end());
      for (const InstRef &I : AL.Sched.NonCritical)
        emitSliceInst(B, New, I, Stats.SliceInsts);
      if (!Inner.empty() && AL.InnerUnroll > 1) {
        for (unsigned U = 1; U < AL.InnerUnroll; ++U)
          for (const InstRef &I : AL.Sched.NonCritical)
            if (Inner.count(I))
              emitSliceInst(B, New, I, Stats.SliceInsts);
      }
      std::set<std::pair<Reg, int64_t>> Prefetched;
      for (const InstRef &T : AL.Slice.TargetLoads) {
        const Instruction &L = T.get(New);
        if (Prefetched.insert({L.Src1, L.Imm}).second)
          B.prefetch(L.Src1, L.Imm);
      }
      B.killThread();
    };

    // --- Slice blocks (appended attachments) ---
    uint32_t Hdr = B.createBlock("ssp.slice.hdr", BlockKind::Slice);
    uint32_t Body = 0, SpawnBlk = 0, Pro = 0;
    if (Chaining) {
      Body = B.createBlock("ssp.slice.body", BlockKind::Slice);
      SpawnBlk = B.createBlock("ssp.slice.spawn", BlockKind::Slice);
      Stats.SliceBlocks += 2;
      if (HasPrologue) {
        Pro = B.createBlock("ssp.slice.prologue", BlockKind::Slice);
        ++Stats.SliceBlocks;
      }
    }
    ++Stats.SliceBlocks;

    B.setInsertPoint(Hdr);
    if (Chaining) {
      for (uint32_t I = 0; I < ChainLiveIns.size(); ++I)
        B.copyFromLIB(ChainLiveIns[I], I);
      if (UseBudget)
        B.copyFromLIB(BudgetReg, BudgetSlot);
    } else {
      for (uint32_t I = 0; I < StubLiveIns.size(); ++I)
        B.copyFromLIB(StubLiveIns[I], I);
    }

    for (const InstRef &I : AL.Sched.Critical)
      emitSliceInst(B, New, I, Stats.SliceInsts);

    if (Chaining) {
      // Stage the next thread's live-ins (carried values were just
      // updated by the critical sub-slice; invariants pass through).
      for (uint32_t I = 0; I < ChainLiveIns.size(); ++I)
        B.copyToLIB(I, ChainLiveIns[I]);
      if (UseBudget) {
        B.addI(BudgetReg, BudgetReg, -1);
        B.copyToLIB(BudgetSlot, BudgetReg);
        B.cmpI(CondCode::GT, BudgetPred, BudgetReg, 0);
        B.br(BudgetPred, SpawnBlk);
      } else {
        // Gate on the computed spawn condition (the loop latch predicate).
        const Instruction &CondBr = AL.Sched.ConditionBranch.get(New);
        assert(CondBr.Op == Opcode::Br);
        B.br(CondBr.Src1, SpawnBlk);
      }

      B.setInsertPoint(Body);
      EmitBodyAndPrefetches();

      B.setInsertPoint(SpawnBlk);
      B.spawn(Hdr);
      B.jmp(Body);

      if (HasPrologue) {
        // The prologue thread: compute the chain's initial live-ins from
        // the trigger-point live-ins, then launch the first chain link.
        B.setInsertPoint(Pro);
        for (uint32_t I = 0; I < StubLiveIns.size(); ++I)
          B.copyFromLIB(StubLiveIns[I], I);
        for (const InstRef &I : AL.Sched.Prologue)
          emitSliceInst(B, New, I, Stats.SliceInsts);
        for (uint32_t I = 0; I < ChainLiveIns.size(); ++I)
          B.copyToLIB(I, ChainLiveIns[I]);
        if (UseBudget)
          B.copyToLIBI(BudgetSlot, static_cast<int64_t>(AL.TripBudget));
        B.spawn(Hdr);
        B.killThread();
      }
    } else {
      // Basic SP: one straight-line thread per trigger firing. The list
      // schedule already orders prologue producers first. Extra sections
      // (other calling contexts) follow, each after a fresh live-in
      // reload so register redefinitions cannot cross-contaminate.
      std::set<InstRef> Inner(AL.Sched.InnerLoopMembers.begin(),
                              AL.Sched.InnerLoopMembers.end());
      auto EmitSection = [&](const std::vector<InstRef> &Body2,
                             const std::vector<InstRef> &Targets) {
        for (const InstRef &I : Body2)
          emitSliceInst(B, New, I, Stats.SliceInsts);
        std::set<std::pair<Reg, int64_t>> Prefetched;
        for (const InstRef &T : Targets) {
          const Instruction &L = T.get(New);
          if (Prefetched.insert({L.Src1, L.Imm}).second)
            B.prefetch(L.Src1, L.Imm);
        }
      };
      EmitSection(AL.Sched.NonCritical, AL.Slice.TargetLoads);
      if (!Inner.empty() && AL.InnerUnroll > 1) {
        std::vector<InstRef> InnerSeq;
        for (const InstRef &I : AL.Sched.NonCritical)
          if (Inner.count(I))
            InnerSeq.push_back(I);
        for (unsigned U = 1; U < AL.InnerUnroll; ++U)
          EmitSection(InnerSeq, AL.Slice.TargetLoads);
      }
      for (size_t SI = 0; SI < AL.ExtraSections.size(); ++SI) {
        for (uint32_t I = 0; I < StubLiveIns.size(); ++I)
          B.copyFromLIB(StubLiveIns[I], I);
        EmitSection(AL.ExtraSections[SI].NonCritical,
                    SI < AL.ExtraTargets.size() ? AL.ExtraTargets[SI]
                                                : AL.Slice.TargetLoads);
      }
      B.killThread();
    }

    // --- Stub block ---
    uint32_t Stub = B.createBlock("ssp.stub", BlockKind::Stub);
    ++Stats.StubBlocks;
    B.setInsertPoint(Stub);
    for (uint32_t I = 0; I < StubLiveIns.size(); ++I)
      B.copyToLIB(I, StubLiveIns[I]);
    if (UseBudget && !HasPrologue)
      B.copyToLIBI(BudgetSlot, static_cast<int64_t>(AL.TripBudget));
    B.spawn(HasPrologue ? Pro : Hdr);
    B.rfi();

    // --- Stream classification (regular patterns only) ---
    // Only the plain chained shape is classified: one section, no
    // prologue, gated on either the LIB trip budget or the slice's own
    // latch condition (a condition cmp in the critical sub-slice defines
    // only a predicate, which the classifier ignores). The classifier
    // sees exactly the instruction sequences the emitters above produced
    // (same sliceEmittable filter, same inner-unroll expansion, same
    // prefetch dedup), so the attached descriptor describes the emitted
    // slice, not merely the plan; the stream.* verify pass re-derives it
    // from the emitted blocks and any disagreement is fatal.
    std::optional<StreamDescriptor> StreamD;
    if (EnableStreams && Chaining && !HasPrologue &&
        AL.ExtraSections.empty()) {
      StreamClassifyInput SIn;
      for (const InstRef &I : AL.Sched.Critical) {
        const Instruction &Inst = I.get(New);
        if (sliceEmittable(Inst.Op))
          SIn.Critical.push_back(Inst);
      }
      std::set<InstRef> Inner(AL.Sched.InnerLoopMembers.begin(),
                              AL.Sched.InnerLoopMembers.end());
      auto AppendBody = [&](bool InnerOnly) {
        for (const InstRef &I : AL.Sched.NonCritical) {
          if (InnerOnly && !Inner.count(I))
            continue;
          const Instruction &Inst = I.get(New);
          if (sliceEmittable(Inst.Op))
            SIn.Body.push_back(Inst);
        }
      };
      AppendBody(false);
      if (!Inner.empty() && AL.InnerUnroll > 1)
        for (unsigned U = 1; U < AL.InnerUnroll; ++U)
          AppendBody(true);
      std::set<std::pair<Reg, int64_t>> Seen;
      for (const InstRef &T : AL.Slice.TargetLoads) {
        const Instruction &L = T.get(New);
        if (Seen.insert({L.Src1, L.Imm}).second)
          SIn.Targets.push_back({L.Src1, L.Imm});
      }
      SIn.Depth = static_cast<uint32_t>(
          std::min<uint64_t>(AL.TripBudget, UINT32_MAX));
      StreamD = classifyStream(SIn);
      if (StreamD) {
        StreamD->Func = Func;
        StreamD->StubBlock = Stub;
        New.addStream(*StreamD);
        ++Stats.StreamDescriptors;
      }
    }

    // --- Triggers (cut-set triggers plus chain restart triggers) ---
    int SliceIdx = Manifest ? static_cast<int>(Manifest->Slices.size()) : -1;
    for (const trigger::TriggerPlacement &T : AL.Plan.Triggers)
      PendingTriggers[{T.Where.Func, T.Where.Block}].push_back(
          {T.Where.Inst, Stub, SliceIdx, /*Restart=*/false});
    for (const trigger::TriggerPlacement &T : AL.Plan.RestartTriggers)
      PendingTriggers[{T.Where.Func, T.Where.Block}].push_back(
          {T.Where.Inst, Stub, SliceIdx, /*Restart=*/true});

    // --- Rewrite plan record for the verification pipeline ---
    // Planned prefetches mirror the emission dedup above exactly: the
    // verifier re-finds them in the emitted slice, so drift between this
    // record and the emitters is itself a detectable bug.
    if (Manifest) {
      verify::SliceManifest SM;
      SM.Func = Func;
      SM.StubBlock = Stub;
      SM.HeaderBlock = Hdr;
      SM.UsesBudget = UseBudget;
      SM.TripBudget = AL.TripBudget;
      SM.PrimaryLoadSid = ir::makeStaticId(
          AL.Slice.PrimaryLoad.Func, AL.Slice.PrimaryLoad.get(New).Id);
      {
        std::set<uint64_t> TargetSids;
        for (const InstRef &T : AL.Slice.TargetLoads)
          TargetSids.insert(ir::makeStaticId(T.Func, T.get(New).Id));
        for (const std::vector<InstRef> &Ts : AL.ExtraTargets)
          for (const InstRef &T : Ts)
            TargetSids.insert(ir::makeStaticId(T.Func, T.get(New).Id));
        SM.TargetLoadSids.assign(TargetSids.begin(), TargetSids.end());
      }
      SM.RegionDepth = AL.RegionDepth;
      SM.InnerUnroll = AL.InnerUnroll;
      SM.InnerMembers =
          static_cast<unsigned>(AL.Sched.InnerLoopMembers.size());
      std::set<std::pair<Reg, int64_t>> Planned;
      for (const InstRef &T : AL.Slice.TargetLoads) {
        const Instruction &L = T.get(New);
        Planned.insert({L.Src1, L.Imm});
      }
      if (!Chaining)
        for (size_t SI = 0; SI < AL.ExtraSections.size(); ++SI) {
          const std::vector<InstRef> &Targets =
              SI < AL.ExtraTargets.size() ? AL.ExtraTargets[SI]
                                          : AL.Slice.TargetLoads;
          for (const InstRef &T : Targets) {
            const Instruction &L = T.get(New);
            Planned.insert({L.Src1, L.Imm});
          }
        }
      SM.PrefetchTargets.assign(Planned.begin(), Planned.end());
      SM.SpecDrops = AL.Slice.SpecDrops;
      SM.SpecDrops.insert(SM.SpecDrops.end(), AL.Sched.SpecDrops.begin(),
                          AL.Sched.SpecDrops.end());
      for (const sched::ScheduledSlice &Extra : AL.ExtraSections)
        SM.SpecDrops.insert(SM.SpecDrops.end(), Extra.SpecDrops.begin(),
                            Extra.SpecDrops.end());
      std::sort(SM.SpecDrops.begin(), SM.SpecDrops.end());
      SM.SpecDrops.erase(
          std::unique(SM.SpecDrops.begin(), SM.SpecDrops.end()),
          SM.SpecDrops.end());
      if (StreamD) {
        SM.HasStream = true;
        SM.Stream = *StreamD;
      }
      Manifest->Slices.push_back(std::move(SM));
      Manifest->PlannedTriggers += static_cast<unsigned>(
          AL.Plan.Triggers.size() + AL.Plan.RestartTriggers.size());
    }
  }

  // Insert chk.c instructions, highest index first so indices stay valid.
  for (auto &[Loc, Inserts] : PendingTriggers) {
    auto [Func, Block] = Loc;
    std::sort(Inserts.begin(), Inserts.end(),
              [](const PendingTrigger &A, const PendingTrigger &B2) {
                return A.Idx > B2.Idx;
              });
    Function &F = New.func(Func);
    for (const PendingTrigger &PT : Inserts) {
      Instruction I;
      I.Op = Opcode::ChkC;
      I.Target = PT.Stub;
      I.Id = F.nextInstId();
      BasicBlock &BB = F.block(Block);
      assert(PT.Idx <= BB.Insts.size() && "trigger index out of range");
      BB.Insts.insert(BB.Insts.begin() + PT.Idx, I);
      ++Stats.TriggersInserted;
      // Record the freshly assigned static id for the attribution join.
      if (Manifest && PT.SliceIdx >= 0) {
        verify::SliceManifest &SM = Manifest->Slices[PT.SliceIdx];
        (PT.Restart ? SM.RestartTriggerSids : SM.CutTriggerSids)
            .push_back(ir::makeStaticId(Func, I.Id));
      }
    }
  }
  if (Manifest)
    for (verify::SliceManifest &SM : Manifest->Slices) {
      std::sort(SM.CutTriggerSids.begin(), SM.CutTriggerSids.end());
      std::sort(SM.RestartTriggerSids.begin(), SM.RestartTriggerSids.end());
    }

  if (Info)
    *Info = Stats;
  return New;
}
