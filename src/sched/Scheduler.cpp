//===- sched/Scheduler.cpp - Scheduling slices for SP ----------------------===//

#include "sched/Scheduler.h"

#include "analysis/SCC.h"
#include "sched/LoopRotation.h"
#include "support/BitVector.h"

#include <algorithm>
#include <cassert>

using namespace ssp;
using namespace ssp::sched;
using namespace ssp::analysis;
using namespace ssp::ir;

SliceScheduler::SliceScheduler(const ProgramDeps &Deps, const RegionGraph &RG,
                               const profile::ProfileData &PD,
                               ScheduleOptions Opts, const SpecDeps *Spec)
    : RegionHeights(std::make_shared<std::vector<std::atomic<uint64_t>>>(
          RG.numRegions())),
      Deps(Deps), RG(RG), PD(PD), Opts(Opts), Spec(Spec) {
  for (std::atomic<uint64_t> &Slot : *RegionHeights)
    Slot.store(UnknownHeight, std::memory_order_relaxed);
}

uint64_t SliceScheduler::reducedMissCycles(uint64_t SlackPerIter,
                                           uint64_t MissPerIter,
                                           double TripCount) {
  if (MissPerIter == 0 || TripCount <= 0)
    return 0;
  uint64_t T = static_cast<uint64_t>(TripCount);
  if (T == 0)
    T = 1;
  if (SlackPerIter == 0)
    return 0;
  // slack(i) = SlackPerIter * i saturates at MissPerIter once
  // i >= MissPerIter / SlackPerIter.
  uint64_t K = std::min<uint64_t>(T, MissPerIter / SlackPerIter);
  uint64_t Ramp = SlackPerIter * (K * (K + 1) / 2);
  uint64_t Flat = (T - K) * MissPerIter;
  return Ramp + Flat;
}

std::vector<unsigned>
SliceScheduler::listSchedule(const SliceDepGraph &G,
                             const std::vector<uint64_t> &Heights,
                             const std::vector<unsigned> &Subset) const {
  // Forward cycle scheduling with the maximum-cumulative-cost heuristic:
  // repeatedly issue the ready node of greatest height; ties go to the
  // lower instruction address (Section 3.2.1.2.2). Loop-carried edges are
  // ignored ("instructions within each non-degenerate SCC are list
  // scheduled by ignoring all the loop-carried dependence edges").
  std::vector<uint8_t> Remaining(G.size(), 0);
  for (unsigned V : Subset)
    Remaining[V] = 1;
  std::vector<unsigned> Order;
  Order.reserve(Subset.size());

  // Predecessor counts restricted to the subset, intra edges only.
  std::vector<unsigned> PredCount(G.size(), 0);
  for (unsigned V : Subset)
    for (unsigned W : G.intraSuccs()[V])
      if (Remaining[W])
        ++PredCount[W];

  std::vector<unsigned> Ready;
  for (unsigned V : Subset)
    if (PredCount[V] == 0)
      Ready.push_back(V);

  while (!Ready.empty()) {
    // Pick max height; tie-break on InstRef (lower address first).
    unsigned BestIdx = 0;
    for (unsigned I = 1; I < Ready.size(); ++I) {
      unsigned A = Ready[I], B = Ready[BestIdx];
      if (Heights[A] > Heights[B] ||
          (Heights[A] == Heights[B] && G.node(A).Ref < G.node(B).Ref))
        BestIdx = I;
    }
    unsigned V = Ready[BestIdx];
    Ready.erase(Ready.begin() + BestIdx);
    Remaining[V] = 0;
    Order.push_back(V);
    for (unsigned W : G.intraSuccs()[V]) {
      if (!Remaining[W])
        continue;
      if (--PredCount[W] == 0)
        Ready.push_back(W);
    }
  }
  // Any nodes left unscheduled would indicate an intra cycle; append them
  // in reference order as a safety net.
  for (unsigned V = 0; V < G.size(); ++V)
    if (Remaining[V])
      Order.push_back(V);
  return Order;
}

const std::vector<uint32_t> &SliceScheduler::callCosts() {
  if (CallCostsReady)
    return CallCostCache;
  const Program &P = Deps.program();
  // Pass 1 uses the flat estimate (CallCostCache empty); pass 2 refines
  // call costs with the pass-1 per-invocation lengths. Clamped so that
  // deep recursion cannot blow the estimates up.
  for (int Pass = 0; Pass < 2; ++Pass) {
    std::vector<uint32_t> Next(P.numFuncs(), 0);
    for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
      uint64_t Len =
          regionScheduleLength(RG.procedureRegion(FI));
      Next[FI] = static_cast<uint32_t>(
          std::min<uint64_t>(Len, 5000));
    }
    CallCostCache = std::move(Next);
  }
  CallCostsReady = true;
  return CallCostCache;
}

uint64_t SliceScheduler::regionHeight(int RegionIdx) {
  // Every input below is fixed once the call costs are, so workers that
  // race on a slot compute and store the same value.
  std::atomic<uint64_t> &Slot = (*RegionHeights)[RegionIdx];
  uint64_t H = Slot.load(std::memory_order_relaxed);
  if (H != UnknownHeight)
    return H;
  const Region &R = RG.region(RegionIdx);
  const Loop *RegionLoop =
      R.Kind == RegionKind::Loop
          ? &Deps.forFunction(R.Func).loops().loop(R.LoopIdx)
          : nullptr;
  const std::vector<uint32_t> &Costs = callCosts();
  SliceDepGraph RegionG =
      SliceDepGraph::build(Deps, regionInstructions(RG, RegionIdx, Deps),
                           RegionLoop, R.Func, PD, /*PessimisticLoads=*/false,
                           &Costs);
  H = std::max(RegionG.height(), regionScheduleLength(RegionIdx));
  Slot.store(H, std::memory_order_relaxed);
  return H;
}

uint64_t SliceScheduler::regionScheduleLength(int RegionIdx) {
  const Region &R = RG.region(RegionIdx);
  const Program &P = Deps.program();
  uint64_t Invocations;
  if (R.Kind == RegionKind::Loop) {
    const Loop &L = Deps.forFunction(R.Func).loops().loop(R.LoopIdx);
    Invocations = PD.blockCount(R.Func, L.Header);
  } else {
    Invocations = PD.blockCount(R.Func, Deps.forFunction(R.Func)
                                            .cfg()
                                            .entry());
  }
  if (Invocations == 0)
    return 0;
  uint64_t Total = 0;
  for (const InstRef &I : regionInstructions(RG, RegionIdx, Deps)) {
    const Instruction &Inst = I.get(P);
    uint64_t Lat;
    if (isLoad(Inst.Op))
      Lat = profiledLoadLatency(P, I, PD);
    else if (Inst.Op == Opcode::Call || Inst.Op == Opcode::CallInd) {
      Lat = CallLatencyEstimate;
      if (Inst.Op == Opcode::Call && Inst.Target < CallCostCache.size() &&
          CallCostCache[Inst.Target] > 0)
        Lat = CallCostCache[Inst.Target];
    } else
      Lat = latencyOf(Inst.Op);
    Total += PD.blockCount(I.Func, I.Block) * Lat;
  }
  return Total / Invocations;
}

ScheduledSlice SliceScheduler::schedule(const slicer::Slice &S,
                                        SPModel Model) {
  ScheduledSlice Out;
  Out.LiveIns = S.LiveIns;
  const Program &P = Deps.program();
  const Region &R = RG.region(S.RegionIdx);

  // The chain loop: the iteration structure the do-across prefetching loop
  // follows. For loop regions it is the region itself; for procedure
  // regions (region-based slicing climbed past the loop) it is the
  // innermost loop containing the delinquent load.
  const Loop *ChainLoop = nullptr;
  uint32_t ChainFunc = 0;
  if (R.Kind == RegionKind::Loop) {
    ChainLoop = &Deps.forFunction(R.Func).loops().loop(R.LoopIdx);
    ChainFunc = R.Func;
  } else {
    const FunctionDeps &LFD = Deps.forFunction(S.PrimaryLoad.Func);
    int LI = LFD.loops().innermostLoopOf(S.PrimaryLoad.Block);
    if (LI >= 0) {
      ChainLoop = &LFD.loops().loop(LI);
      ChainFunc = S.PrimaryLoad.Func;
    }
  }
  if (!ChainLoop && Model == SPModel::Chaining)
    Model = SPModel::Basic; // Chaining needs an iteration structure.
  Out.Model = Model;

  Out.RegionHeight = regionHeight(S.RegionIdx);

  if (ChainLoop)
    Out.ChainTripCount = PD.tripCountOf(
        ChainFunc, *ChainLoop, /*Fallback=*/1.0);

  // The working member set (may shrink under condition prediction).
  std::vector<InstRef> Members = S.Insts;
  SliceDepGraph G = SliceDepGraph::build(Deps, Members, ChainLoop,
                                         ChainFunc, PD,
                                         /*PessimisticLoads=*/true,
                                         /*CallCosts=*/nullptr, Spec,
                                         &Out.SpecDrops);

  auto FindConditionBranch = [&]() {
    Out.HasConditionBranch = false;
    if (!ChainLoop)
      return;
    for (unsigned V = 0; V < G.size(); ++V) {
      const InstRef &Ref = G.node(V).Ref;
      const Instruction &I = Ref.get(P);
      if (I.Op == Opcode::Br && Ref.Func == ChainFunc &&
          I.Target == ChainLoop->Header) {
        Out.HasConditionBranch = true;
        Out.ConditionBranch = Ref;
        return;
      }
    }
  };
  FindConditionBranch();

  // --- Dependence reduction 2 (Section 3.2.1.1): condition prediction. ---
  // When the spawn condition's computation is load-dependent, predict it:
  // the chain runs on a LIB trip budget and the condition-only chain is
  // pruned from the slice (keeping only what the prefetch addresses need).
  if (Model == SPModel::Chaining && Out.HasConditionBranch &&
      Opts.EnableConditionPrediction) {
    int BranchIdx = G.indexOf(Out.ConditionBranch);
    assert(BranchIdx >= 0);
    std::vector<std::vector<unsigned>> RevAll(G.size());
    for (unsigned V = 0; V < G.size(); ++V) {
      for (unsigned W : G.intraSuccs()[V])
        RevAll[W].push_back(V);
      for (unsigned W : G.carriedSuccs()[V])
        RevAll[W].push_back(V);
    }
    std::vector<uint8_t> InCondChain(G.size(), 0);
    std::vector<unsigned> Work{static_cast<unsigned>(BranchIdx)};
    bool LoadDependent = false;
    while (!Work.empty()) {
      unsigned V = Work.back();
      Work.pop_back();
      if (InCondChain[V])
        continue;
      InCondChain[V] = 1;
      LoadDependent |= isLoad(G.node(V).Ref.get(P).Op);
      for (unsigned W : RevAll[V])
        Work.push_back(W);
    }

    if (LoadDependent) {
      Out.PredictCondition = true;
      // Keep-closure over *data* producers only, seeded by the slice's
      // loads (they are the prefetch engine) and by the producers of the
      // target addresses; everything else existed only to compute the
      // now-predicted condition.
      // G's nodes are Members, in order.
      support::BitVector TargetBases(Reg::NumDenseIndices);
      for (const InstRef &T : S.TargetLoads)
        if (Reg Base = T.get(P).Src1; Base.isValid())
          TargetBases.set(Base.denseIndex());
      std::vector<uint8_t> Keep(G.size(), 0);
      std::vector<unsigned> KWork;
      for (unsigned V = 0; V < G.size(); ++V) {
        const Instruction &I = G.node(V).Ref.get(P);
        Reg D = I.def();
        if (isLoad(I.Op) || (D.isValid() && TargetBases.test(D.denseIndex())))
          KWork.push_back(V);
      }
      while (!KWork.empty()) {
        unsigned V = KWork.back();
        KWork.pop_back();
        if (Keep[V])
          continue;
        Keep[V] = 1;
        const InstRef &M = G.node(V).Ref;
        const FunctionDeps &FD = Deps.forFunction(M.Func);
        for (const InstRef &Prod : FD.dataSources(M))
          if (int PI = G.indexOf(Prod); PI >= 0)
            KWork.push_back(static_cast<unsigned>(PI));
      }
      // Prologue members always survive (they seed the chain live-ins).
      for (unsigned V = 0; V < G.size(); ++V) {
        const InstRef &M = G.node(V).Ref;
        if (ChainLoop && M.Func == ChainFunc &&
            !ChainLoop->contains(M.Block))
          Keep[V] = 1;
      }

      if (std::find(Keep.begin(), Keep.end(), 0) != Keep.end()) {
        std::vector<InstRef> Pruned;
        for (unsigned V = 0; V < G.size(); ++V)
          if (Keep[V])
            Pruned.push_back(Members[V]);
        Members = std::move(Pruned);
        G = SliceDepGraph::build(Deps, Members, ChainLoop, ChainFunc, PD,
                                 /*PessimisticLoads=*/true,
                                 /*CallCosts=*/nullptr, Spec,
                                 &Out.SpecDrops);
      }
    }
  }

  // Both graph builds above may have recorded the same dropped edge.
  std::sort(Out.SpecDrops.begin(), Out.SpecDrops.end());
  Out.SpecDrops.erase(
      std::unique(Out.SpecDrops.begin(), Out.SpecDrops.end()),
      Out.SpecDrops.end());

  std::vector<uint64_t> Heights = G.nodeHeights();
  for (uint64_t H : Heights)
    Out.SliceHeight = std::max(Out.SliceHeight, H);
  // Available ILP (Section 3.2.1.2.2): total latency over the critical
  // path length.
  if (Out.SliceHeight > 0)
    Out.AvailableILP = static_cast<double>(G.totalLatency()) /
                       static_cast<double>(Out.SliceHeight);

  // Partition: prologue = members in the chain function but outside the
  // chain loop; chain = members in the loop plus members reached through
  // calls (other functions, dynamically inside the iteration).
  std::vector<unsigned> ChainIdx, PrologueIdx;
  std::vector<uint8_t> IsChain(G.size(), 1);
  for (unsigned V = 0; V < G.size(); ++V) {
    const InstRef &Ref = G.node(V).Ref;
    if (ChainLoop && Ref.Func == ChainFunc &&
        !ChainLoop->contains(Ref.Block))
      IsChain[V] = 0;
    (IsChain[V] ? ChainIdx : PrologueIdx).push_back(V);
  }

  // Chain live-ins: registers chain members read whose values come from
  // the prologue or from outside the slice.
  auto Regs = [](const support::BitVector &Set) {
    std::vector<Reg> Sorted;
    Set.forEachSetBit([&](size_t Dense) {
      Sorted.push_back(regFromDenseIndex(static_cast<unsigned>(Dense)));
    });
    return Sorted;
  };
  support::BitVector ChainLive(Reg::NumDenseIndices);
  {
    support::BitVector Outside(Reg::NumDenseIndices);
    for (Reg L : S.LiveIns)
      if (L.isValid())
        Outside.set(L.denseIndex());
    for (unsigned V : PrologueIdx) {
      Reg D = G.node(V).Ref.get(P).def();
      if (D.isValid())
        Outside.set(D.denseIndex());
    }
    for (unsigned V : ChainIdx) {
      G.node(V).Ref.get(P).forEachUse([&](Reg U) {
        if (U.isValid() && Outside.test(U.denseIndex()))
          ChainLive.set(U.denseIndex());
      });
    }
    // The prefetch targets' base registers must also flow to the chain.
    for (const InstRef &T : S.TargetLoads) {
      Reg Base = T.get(P).Src1;
      if (Base.isValid() && Outside.test(Base.denseIndex()))
        ChainLive.set(Base.denseIndex());
    }
    Out.ChainLiveIns = Regs(ChainLive);
  }

  // Carried registers: chain live-ins the chain itself redefines (their
  // updated values are the next chaining thread's live-ins).
  support::BitVector Carried(Reg::NumDenseIndices);
  for (unsigned V : ChainIdx) {
    Reg D = G.node(V).Ref.get(P).def();
    if (D.isValid() && ChainLive.test(D.denseIndex()))
      Carried.set(D.denseIndex());
  }
  Out.CarriedRegs = Regs(Carried);

  // Inner-loop members: chain members sitting in a loop that is not the
  // chain loop (a nested loop, or any loop of a callee function).
  for (unsigned V : ChainIdx) {
    const InstRef &Ref = G.node(V).Ref;
    const FunctionDeps &FD = Deps.forFunction(Ref.Func);
    int LI = FD.loops().innermostLoopOf(Ref.Block);
    if (LI < 0)
      continue;
    const Loop *L = &FD.loops().loop(LI);
    if (ChainLoop && Ref.Func == ChainFunc &&
        L->Header == ChainLoop->Header)
      continue;
    Out.InnerLoopMembers.push_back(Ref);
  }
  std::sort(Out.InnerLoopMembers.begin(), Out.InnerLoopMembers.end());
  Out.InnerLoopMembers.erase(std::unique(Out.InnerLoopMembers.begin(),
                                         Out.InnerLoopMembers.end()),
                             Out.InnerLoopMembers.end());

  if (Model == SPModel::Basic) {
    // Whole slice list-scheduled, carried edges ignored. Producers are
    // ordered before consumers, so the prologue naturally comes first.
    std::vector<unsigned> All(G.size());
    for (unsigned I = 0; I < G.size(); ++I)
      All[I] = I;
    for (unsigned V : listSchedule(G, Heights, All))
      Out.NonCritical.push_back(G.node(V).Ref);
    if (Out.ChainLiveIns.empty())
      Out.ChainLiveIns = S.LiveIns;
    uint64_t H = Out.SliceHeight;
    // Basic SP on a loop region triggers every iteration: the chk.c
    // exception cost lands on the main thread and eats into the slack.
    if (R.Kind == RegionKind::Loop)
      H += Opts.TriggerOverhead;
    Out.SlackPerIteration = Out.RegionHeight > H ? Out.RegionHeight - H : 0;
    return Out;
  }

  // --- Chaining SP ---
  // Dependence reduction 1: loop rotation over the chain iteration order.
  if (Opts.EnableLoopRotation && !ChainIdx.empty()) {
    RotationResult Rot = rotateForMinimalCarried(G, ChainIdx);
    ChainIdx = Rot.Order;
    Out.RotationBoundary = Rot.Boundary;
    Out.CarriedEdgesBefore = Rot.CarriedBefore;
    Out.CarriedEdgesAfter = Rot.CarriedAfter;
  }

  // SCC partition over intra + carried edges among chain members
  // (Section 3.2.1.2.1).
  std::vector<std::vector<unsigned>> AllEdges(G.size());
  for (unsigned V = 0; V < G.size(); ++V) {
    if (!IsChain[V])
      continue;
    for (unsigned W : G.intraSuccs()[V])
      if (IsChain[W])
        AllEdges[V].push_back(W);
    for (unsigned W : G.carriedSuccs()[V])
      if (IsChain[W])
        AllEdges[V].push_back(W);
  }
  std::vector<std::vector<unsigned>> Comps =
      stronglyConnectedComponents(static_cast<unsigned>(G.size()), AllEdges);

  // Seed the critical sub-slice from the non-degenerate SCCs that carry
  // next-iteration live-ins. Dependence cycles internal to a *nested*
  // loop (e.g. a collision-chain walk inside the chain iteration) form
  // SCCs too, but they produce nothing the next chaining thread consumes,
  // so including them would serialize the chain for no benefit.
  auto DefinesCarried = [&](unsigned V) {
    Reg D = G.node(V).Ref.get(P).def();
    return D.isValid() && Carried.test(D.denseIndex());
  };
  std::vector<uint8_t> InCritical(G.size(), 0);
  for (const std::vector<unsigned> &C : Comps) {
    if (C.size() == 1 && !IsChain[C[0]])
      continue;
    bool NonDegenerate = C.size() > 1;
    if (C.size() == 1) {
      unsigned V = C[0];
      for (unsigned W : G.carriedSuccs()[V])
        if (W == V)
          NonDegenerate = true; // Self cycle, e.g. arc = arc + k.
    }
    if (!NonDegenerate)
      continue;
    bool CarriesLiveIns = false;
    for (unsigned V : C)
      if (DefinesCarried(V))
        CarriesLiveIns = true;
    if (CarriesLiveIns)
      for (unsigned V : C)
        InCritical[V] = 1;
  }

  // The defs of carried registers must reach the spawn point.
  for (unsigned V : ChainIdx)
    if (DefinesCarried(V))
      InCritical[V] = 1;

  // An unpredicted spawn condition must be computed before the spawn (the
  // closure below pulls in its producers).
  if (Out.HasConditionBranch && !Out.PredictCondition) {
    int BranchIdx = G.indexOf(Out.ConditionBranch);
    if (BranchIdx >= 0)
      InCritical[BranchIdx] = 1;
  }

  // Close the critical set backward over intra edges within the chain.
  {
    std::vector<std::vector<unsigned>> RevIntra(G.size());
    for (unsigned V = 0; V < G.size(); ++V)
      for (unsigned W : G.intraSuccs()[V])
        RevIntra[W].push_back(V);
    std::vector<unsigned> Work;
    for (unsigned V = 0; V < G.size(); ++V)
      if (InCritical[V])
        Work.push_back(V);
    while (!Work.empty()) {
      unsigned V = Work.back();
      Work.pop_back();
      for (unsigned W : RevIntra[V])
        if (IsChain[W] && !InCritical[W]) {
          InCritical[W] = 1;
          Work.push_back(W);
        }
    }
  }

  std::vector<unsigned> CriticalVec, Rest;
  for (unsigned V : ChainIdx) {
    if (InCritical[V])
      CriticalVec.push_back(V);
    else
      Rest.push_back(V);
  }

  for (unsigned V : listSchedule(G, Heights, PrologueIdx))
    Out.Prologue.push_back(G.node(V).Ref);
  std::vector<unsigned> CriticalOrder = listSchedule(G, Heights, CriticalVec);
  for (unsigned V : CriticalOrder)
    Out.Critical.push_back(G.node(V).Ref);
  for (unsigned V : listSchedule(G, Heights, Rest))
    Out.NonCritical.push_back(G.node(V).Ref);

  // Critical height: longest intra path within the critical subgraph.
  {
    std::vector<uint64_t> H(G.size(), 0);
    for (auto It = CriticalOrder.rbegin(); It != CriticalOrder.rend(); ++It) {
      unsigned V = *It;
      uint64_t Best = 0;
      for (unsigned W : G.intraSuccs()[V])
        if (InCritical[W])
          Best = std::max(Best, H[W]);
      H[V] = Best + G.node(V).Latency;
    }
    for (unsigned V : CriticalVec)
      Out.CriticalHeight = std::max(Out.CriticalHeight, H[V]);
  }

  uint64_t Overhead =
      Opts.SpawnOverheadBase +
      Opts.CopyLatency * static_cast<unsigned>(Out.ChainLiveIns.size());
  uint64_t Consumed = Out.CriticalHeight + Overhead;
  Out.SlackPerIteration =
      Out.RegionHeight > Consumed ? Out.RegionHeight - Consumed : 0;
  return Out;
}
