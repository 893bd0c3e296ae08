//===- profile/Profile.cpp - Profiling feedback ----------------------------===//

#include "profile/Profile.h"

#include "sim/Executor.h"
#include "sim/ThreadContext.h"
#include "support/Assert.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

using namespace ssp;
using namespace ssp::profile;
using namespace ssp::analysis;
using namespace ssp::ir;

double ProfileData::tripCountOf(uint32_t Func, const Loop &L,
                                double Fallback) const {
  uint64_t HeaderCount = blockCount(Func, L.Header);
  if (HeaderCount == 0)
    return Fallback;
  // Entries = executions of edges into the header from outside the loop.
  uint64_t Entries = 0;
  if (Func < EdgeCounts.size()) {
    for (const auto &[Edge, Count] : EdgeCounts[Func]) {
      if (Edge.second != L.Header)
        continue;
      if (!L.contains(Edge.first))
        Entries += Count;
    }
  }
  if (Entries == 0)
    return static_cast<double>(HeaderCount);
  return static_cast<double>(HeaderCount) / static_cast<double>(Entries);
}

ProfileData
ssp::profile::collectControlFlowProfile(const LinkedProgram &LP,
                                        mem::SimMemory &Mem,
                                        uint64_t MaxInsts) {
  const Program &P = LP.program();
  ProfileData PD;
  PD.BlockCounts.resize(P.numFuncs());
  PD.EdgeCounts.resize(P.numFuncs());
  // Instruction counts accumulate in dense rows sized by the program's
  // ids, and become ProfileData's sparse rows at the end.
  std::vector<std::vector<uint64_t>> InstCounts(P.numFuncs());
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    const Function &F = P.func(FI);
    PD.BlockCounts[FI].assign(F.numBlocks(), 0);
    size_t Width = 0;
    for (uint32_t BI = 0; BI < F.numBlocks(); ++BI)
      for (const Instruction &I : F.block(BI).Insts)
        Width = std::max(Width, size_t(I.Id) + 1);
    InstCounts[FI].assign(Width, 0);
  }

  // Accumulate call-site counts in ordered maps while the run is live,
  // then flatten into the sorted vectors ProfileData carries.
  std::map<InstRef, uint64_t> DirectCounts;
  std::map<std::pair<InstRef, uint32_t>, uint64_t> IndirectCounts;

  // Dependence evidence for speculation-aware slicing: the last writer of
  // each register and of each memory address, and per static-edge
  // activation counts. The ordered maps' (From, To) iteration order is the
  // canonical record order the .sspprof writer emits.
  struct LastWrite {
    uint32_t Func = 0;
    uint32_t Block = 0;
    uint32_t Inst = 0;
    uint32_t Id = 0;
    bool Valid = false;
  };
  LastWrite LastReg[Reg::NumDenseIndices];
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> LastStore;
  std::map<std::pair<StaticId, StaticId>, uint64_t> RegPairs;
  std::map<std::pair<StaticId, StaticId>, uint64_t> MemPairs;
  auto IsHardwired = [](Reg R) {
    return (R.isInt() || R.isPred()) && R.Num == 0;
  };

  sim::ThreadContext Ctx;
  Ctx.PC = LP.entry();

  // Count the entry block.
  {
    const LinkedInst &First = LP.at(Ctx.PC);
    PD.BlockCounts[First.Func][First.Block]++;
  }

  uint32_t PrevFunc = LP.at(Ctx.PC).Func;
  uint32_t PrevBlock = LP.at(Ctx.PC).Block;

  // One outcome for the whole run: executeStep resets its scalar fields
  // every step, and the spawn frame (written only by spawns) is never
  // read here.
  sim::ExecOutcome Out;
  uint64_t Insts = 0;
  while (true) {
    if (++Insts > MaxInsts)
      fatalError("functional profiling exceeded MaxInsts");
    const LinkedInst &LI = LP.at(Ctx.PC);
    uint32_t InstIdx = Ctx.PC - LP.blockStart(LI.Func, LI.Block);
    InstRef Ref{LI.Func, LI.Block, InstIdx};
    InstCounts[LI.Func][LI.I->Id]++;

    if (LI.I->Op == Opcode::Call)
      DirectCounts[Ref]++;

    // Register-use reads happen before the step so self-edges (r = f(r))
    // see the previous writer. Intra-block forward flows are skipped:
    // those are must-dependences regardless of evidence, and they are the
    // overwhelming majority of dynamic flows.
    LI.I->forEachUse([&](Reg R) {
      if (IsHardwired(R))
        return;
      const LastWrite &W = LastReg[R.denseIndex()];
      if (!W.Valid || W.Func != LI.Func)
        return;
      if (W.Block == LI.Block && W.Inst < InstIdx)
        return;
      RegPairs[{makeStaticId(W.Func, W.Id),
                makeStaticId(LI.Func, LI.I->Id)}]++;
    });

    // The original binary has no chk.c; if one is present (profiling an
    // already-enhanced binary), treat it as a nop by reporting no free
    // context.
    executeStep(Ctx, LP, Mem, /*Speculative=*/false,
                /*FreeContextAvailable=*/false, Out);

    if (Out.Kind == sim::CtrlKind::Halt)
      break;

    // Def and memory updates happen after the step (the effective address
    // is an outcome). Only same-function store->load flows are recorded;
    // cross-function pairs are must-deps to the classifier anyway.
    if (Out.IsLoad) {
      auto It = LastStore.find(Out.MemAddr);
      if (It != LastStore.end() && It->second.first == LI.Func)
        MemPairs[{makeStaticId(LI.Func, It->second.second),
                  makeStaticId(LI.Func, LI.I->Id)}]++;
    } else if (Out.IsStore) {
      LastStore[Out.MemAddr] = {LI.Func, LI.I->Id};
    }
    if (LI.I->writesDst()) {
      Reg D = LI.I->def();
      if (!IsHardwired(D)) {
        LastWrite &W = LastReg[D.denseIndex()];
        W.Func = LI.Func;
        W.Block = LI.Block;
        W.Inst = InstIdx;
        W.Id = LI.I->Id;
        W.Valid = true;
      }
    }

    if (LI.I->Op == Opcode::CallInd)
      IndirectCounts[{Ref, LP.at(Ctx.PC).Func}]++;

    const LinkedInst &Next = LP.at(Ctx.PC);
    // A block is re-entered either when control moves to a different
    // block, or when a taken transfer lands back at the start of the same
    // block (a self-loop back edge).
    bool TookTransfer = Out.Kind == sim::CtrlKind::DirectJump ||
                        Out.Kind == sim::CtrlKind::IndirectJump ||
                        (Out.Kind == sim::CtrlKind::Branch && Out.Taken);
    bool SelfLoop = TookTransfer && Next.Func == PrevFunc &&
                    Next.Block == PrevBlock &&
                    Ctx.PC == LP.blockStart(Next.Func, Next.Block);
    if (Next.Func != PrevFunc || Next.Block != PrevBlock || SelfLoop) {
      PD.BlockCounts[Next.Func][Next.Block]++;
      // Record intra-function transitions as CFG edges (branch taken /
      // not taken / jmp); call/ret transitions are not CFG edges.
      if (Next.Func == PrevFunc && LI.I->Op != Opcode::Call &&
          LI.I->Op != Opcode::CallInd && LI.I->Op != Opcode::Ret)
        PD.EdgeCounts[Next.Func][{PrevBlock, Next.Block}]++;
      PrevFunc = Next.Func;
      PrevBlock = Next.Block;
    }
  }

  // Map iteration order is (Site) resp. (Site, Callee) ascending: exactly
  // the sorted order CallGraph::build requires.
  PD.CallSiteCounts.reserve(DirectCounts.size());
  for (const auto &[Site, Count] : DirectCounts)
    PD.CallSiteCounts.push_back({Site, Count});
  PD.IndirectTargets.reserve(IndirectCounts.size());
  for (const auto &[Key, Count] : IndirectCounts)
    PD.IndirectTargets.push_back({Key.first, Key.second, Count});
  PD.MemDepCounts.reserve(MemPairs.size());
  for (const auto &[Edge, Count] : MemPairs)
    PD.MemDepCounts.push_back({Edge.first, Edge.second, Count});
  PD.RegDepCounts.reserve(RegPairs.size());
  for (const auto &[Edge, Count] : RegPairs)
    PD.RegDepCounts.push_back({Edge.first, Edge.second, Count});
  PD.InstCounts.resize(P.numFuncs());
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI)
    for (uint32_t Id = 0; Id < InstCounts[FI].size(); ++Id)
      if (uint64_t C = InstCounts[FI][Id])
        PD.InstCounts[FI].push_back({Id, C});
  PD.HasDepEvidence = true;
  return PD;
}

void ssp::profile::addCacheProfile(ProfileData &PD,
                                   const sim::SimStats &Stats) {
  PD.Loads.clear();
  for (const auto &[Sid, St] : Stats.LoadProfile)
    PD.Loads[Sid] = St;
  PD.BaselineCycles = Stats.Cycles;
}

StaticIdIndex::StaticIdIndex(const Program &P) {
  RowStart.reserve(P.numFuncs() + 1);
  RowStart.push_back(0);
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    size_t Width = 0;
    for (const BasicBlock &BB : P.func(FI).blocks())
      for (const Instruction &I : BB.Insts)
        Width = std::max(Width, size_t(I.Id) + 1);
    RowStart.push_back(RowStart.back() + Width);
  }
  InstRef Unused;
  Unused.Func = ~0u;
  Slots.assign(RowStart.back(), Unused);
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    const Function &F = P.func(FI);
    for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
      const BasicBlock &BB = F.block(BI);
      for (uint32_t II = 0; II < BB.Insts.size(); ++II)
        Slots[RowStart[FI] + BB.Insts[II].Id] = {FI, BI, II};
    }
  }
}

const InstRef *StaticIdIndex::find(StaticId Sid) const {
  size_t Func = staticIdFunc(Sid);
  size_t Inst = staticIdInst(Sid);
  if (Func + 1 >= RowStart.size() ||
      Inst >= RowStart[Func + 1] - RowStart[Func])
    return nullptr;
  const InstRef &Ref = Slots[RowStart[Func] + Inst];
  return Ref.Func == ~0u ? nullptr : &Ref;
}

std::vector<DelinquentLoad>
ssp::profile::selectDelinquentLoads(const Program &P, const ProfileData &PD,
                                    double Coverage, unsigned MaxLoads) {
  StaticIdIndex Index(P);

  std::vector<DelinquentLoad> All;
  uint64_t TotalMissCycles = 0;
  for (const auto &[Sid, Stats] : PD.Loads) {
    if (Stats.MissCycles == 0)
      continue;
    const InstRef *Ref = Index.find(Sid);
    if (!Ref)
      continue; // Load vanished across rewriting; ignore.
    DelinquentLoad D;
    D.Ref = *Ref;
    D.Sid = Sid;
    D.MissCycles = Stats.MissCycles;
    D.L1Misses = Stats.l1Misses();
    D.AvgLatency = Stats.Accesses == 0
                       ? 0.0
                       : static_cast<double>(Stats.MissCycles) /
                             static_cast<double>(Stats.Accesses);
    All.push_back(D);
    TotalMissCycles += Stats.MissCycles;
  }
  // The loop below reads at most MaxLoads loads, so only that prefix is
  // ordered. The order is total (positions are unique), so the prefix is
  // the one a full sort gives.
  std::partial_sort(All.begin(),
                    All.begin() + std::min<size_t>(All.size(), MaxLoads),
                    All.end(),
                    [](const DelinquentLoad &A, const DelinquentLoad &B) {
                      if (A.MissCycles != B.MissCycles)
                        return A.MissCycles > B.MissCycles;
                      return A.Ref < B.Ref;
                    });

  std::vector<DelinquentLoad> Selected;
  uint64_t Covered = 0;
  for (const DelinquentLoad &D : All) {
    if (Selected.size() >= MaxLoads)
      break;
    if (TotalMissCycles > 0 &&
        static_cast<double>(Covered) >=
            Coverage * static_cast<double>(TotalMissCycles))
      break;
    Selected.push_back(D);
    Covered += D.MissCycles;
  }
  return Selected;
}
