//===- tests/sched_test.cpp - Unit tests for the slice scheduler ----------===//

#include "analysis/RegionGraph.h"
#include "analysis/SCC.h"
#include "ir/IRBuilder.h"
#include "profile/Profile.h"
#include "sched/LoopRotation.h"
#include "sched/Scheduler.h"
#include "workloads/Workload.h"

#include "DifferentialCorpus.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::analysis;
using namespace ssp::sched;

namespace {

/// Full pipeline up to scheduling for one workload.
struct SchedHarness {
  Program P;
  profile::ProfileData PD;
  ProgramDeps Deps;
  RegionGraph RG;
  CallGraph CG;
  slicer::Slicer TheSlicer;
  SliceScheduler Scheduler;

  explicit SchedHarness(const workloads::Workload &W,
                        ScheduleOptions SOpts = ScheduleOptions())
      : P(W.Build()), PD(core::profileProgram(P, W.BuildMemory)), Deps(P),
        RG(RegionGraph::build(Deps)),
        CG(CallGraph::build(P, PD.IndirectTargets, PD.CallSiteCounts)),
        TheSlicer(Deps, RG, CG, PD), Scheduler(Deps, RG, PD, SOpts) {}

  slicer::Slice sliceOf(InstRef Load) {
    return TheSlicer.computeSlice(Load,
                                  RG.innermostRegionOf(Load, Deps));
  }
};

/// Verifies that \p Order respects producer-before-consumer for register
/// flow among the ordered instructions (straight-line semantics).
bool respectsDataflow(const Program &P,
                      const std::vector<InstRef> &Order) {
  std::map<Reg, size_t> LastDef;
  // First pass: position of each def.
  for (size_t I = 0; I < Order.size(); ++I) {
    Reg D = Order[I].get(P).def();
    if (D.isValid())
      LastDef[D] = I; // Later defs overwrite.
  }
  // A use at position I must not precede its only producer... the precise
  // check: walk in order maintaining the set of defined regs; a use of a
  // reg that IS defined somewhere in the order but not yet -> violation,
  // unless it is also a live-in (first def after use is a redefinition).
  // We check the common case: the *first* def of each reg must precede
  // all uses that are not also live-ins of the slice. Conservatively we
  // only flag uses of regs whose first def comes later AND that are not
  // defined at all before.
  std::map<Reg, size_t> FirstDef;
  for (size_t I = 0; I < Order.size(); ++I) {
    Reg D = Order[I].get(P).def();
    if (D.isValid() && !FirstDef.count(D))
      FirstDef[D] = I;
  }
  (void)LastDef;
  bool Ok = true;
  for (size_t I = 0; I < Order.size(); ++I) {
    Order[I].get(P).forEachUse([&](Reg U) {
      auto It = FirstDef.find(U);
      if (It == FirstDef.end())
        return; // Live-in: provided by copyFromLIB.
      // A use before the first def is fine only if the reg is carried
      // (live-in and redefined); we can't distinguish here, so only flag
      // uses *strictly* before the first def when the producing
      // instruction does not consume the same register (a non-update).
      if (It->second > I) {
        const Instruction &Prod = Order[It->second].get(P);
        bool SelfUpdate = false;
        Prod.forEachUse([&](Reg PU) { SelfUpdate |= PU == U; });
        if (!SelfUpdate)
          Ok = false;
      }
    });
  }
  return Ok;
}

} // namespace

TEST(Scheduler, ArcKernelChainingShape) {
  SchedHarness H(workloads::makeArcKernel(64, 1 << 10));
  slicer::Slice S = H.sliceOf({0, 1, 1});
  ASSERT_TRUE(S.Valid);
  ScheduledSlice Sched = H.Scheduler.schedule(S, SPModel::Chaining);

  EXPECT_EQ(Sched.Model, SPModel::Chaining);
  EXPECT_FALSE(Sched.Critical.empty())
      << "the induction SCC must be scheduled before the spawn";
  EXPECT_FALSE(Sched.NonCritical.empty())
      << "the pointer loads belong after the spawn";
  // The critical sub-slice contains the induction update; the loads are
  // non-critical (Figure 5's partition).
  bool LoadInCritical = false;
  for (const InstRef &I : Sched.Critical)
    LoadInCritical |= isLoad(I.get(H.P).Op);
  EXPECT_FALSE(LoadInCritical);
  // Carried register: the arc pointer.
  ASSERT_FALSE(Sched.CarriedRegs.empty());
  EXPECT_EQ(Sched.CarriedRegs[0], ireg(1));
  EXPECT_GT(Sched.SlackPerIteration, 0u);
  EXPECT_TRUE(Sched.HasConditionBranch);
  EXPECT_FALSE(Sched.PredictCondition)
      << "an induction-only condition is computed, not predicted";
}

TEST(Scheduler, BasicModelSchedulesWholeSlice) {
  SchedHarness H(workloads::makeArcKernel(64, 1 << 10));
  slicer::Slice S = H.sliceOf({0, 1, 1});
  ASSERT_TRUE(S.Valid);
  ScheduledSlice Sched = H.Scheduler.schedule(S, SPModel::Basic);
  EXPECT_TRUE(Sched.Critical.empty());
  EXPECT_FALSE(Sched.NonCritical.empty());
  EXPECT_TRUE(respectsDataflow(H.P, Sched.NonCritical));
}

TEST(Scheduler, ListScheduleRespectsDataflow) {
  for (const char *Name : {"em3d", "mcf", "vpr"}) {
    workloads::Workload W;
    for (workloads::Workload &C : workloads::paperSuite())
      if (C.Name == Name)
        W = C;
    SchedHarness H(W);
    std::vector<profile::DelinquentLoad> DL =
        profile::selectDelinquentLoads(H.P, H.PD);
    // Use the baseline profile-free ranking: any load works for the
    // dataflow property.
    for (uint32_t FI = 0; FI < H.P.numFuncs() && FI < 1; ++FI) {
      for (const profile::DelinquentLoad &D : DL) {
        slicer::Slice S = H.sliceOf(D.Ref);
        if (!S.Valid)
          continue;
        ScheduledSlice Sched = H.Scheduler.schedule(S, SPModel::Chaining);
        std::vector<InstRef> Whole = Sched.Prologue;
        Whole.insert(Whole.end(), Sched.Critical.begin(),
                     Sched.Critical.end());
        Whole.insert(Whole.end(), Sched.NonCritical.begin(),
                     Sched.NonCritical.end());
        EXPECT_TRUE(respectsDataflow(H.P, Whole))
            << Name << " slice of " << D.Ref.str();
      }
    }
  }
}

TEST(Scheduler, ConditionPredictionOnLoadDependentCondition) {
  // treeadd.bf's spawn condition (head < tail) depends on the enqueue
  // loads; the scheduler must predict it and prune the condition chain.
  SchedHarness H(workloads::makeTreeaddBF());
  std::vector<profile::DelinquentLoad> DL =
      profile::selectDelinquentLoads(H.P, H.PD);
  ASSERT_FALSE(DL.empty());
  slicer::Slice S = H.sliceOf(DL.front().Ref);
  ASSERT_TRUE(S.Valid);
  ScheduledSlice Sched = H.Scheduler.schedule(S, SPModel::Chaining);
  EXPECT_TRUE(Sched.PredictCondition);
  // With the condition pruned, the critical sub-slice is the dequeue
  // induction only: short.
  EXPECT_LE(Sched.Critical.size(), 2u);
  EXPECT_GT(Sched.SlackPerIteration, 100u);
}

TEST(Scheduler, PredictionDisabledKeepsConditionCritical) {
  ScheduleOptions Opts;
  Opts.EnableConditionPrediction = false;
  SchedHarness H(workloads::makeTreeaddBF(), Opts);
  std::vector<profile::DelinquentLoad> DL =
      profile::selectDelinquentLoads(H.P, H.PD);
  ASSERT_FALSE(DL.empty());
  slicer::Slice S = H.sliceOf(DL.front().Ref);
  ASSERT_TRUE(S.Valid);
  ScheduledSlice Sched = H.Scheduler.schedule(S, SPModel::Chaining);
  EXPECT_FALSE(Sched.PredictCondition);
  EXPECT_GT(Sched.Critical.size(), 2u)
      << "the load-dependent condition chain must stay before the spawn";
}

TEST(Scheduler, ReducedMissCyclesMath) {
  // slack(i) = 10*i; miss 100/iter; 20 iterations.
  // Ramp: i=1..10 contributes 10+20+...+100 = 550; flat: 10 * 100 = 1000.
  EXPECT_EQ(SliceScheduler::reducedMissCycles(10, 100, 20), 1550u);
  // Zero slack: nothing saved.
  EXPECT_EQ(SliceScheduler::reducedMissCycles(0, 100, 20), 0u);
  // Slack beyond the miss cost saturates immediately.
  EXPECT_EQ(SliceScheduler::reducedMissCycles(500, 100, 3), 300u);
  EXPECT_EQ(SliceScheduler::reducedMissCycles(10, 0, 20), 0u);
}

TEST(LoopRotation, ConvertsBackwardCarried) {
  // Three nodes in iteration order A(0) B(1) C(2): intra A->B, carried
  // C->A... rotating to start at C makes C->A intra. Build a tiny graph
  // via the public API of SliceDepGraph is heavy; instead test the
  // rotation on a synthetic SliceDepGraph from the arc kernel slice.
  SchedHarness H(workloads::makeArcKernel(64, 1 << 10));
  slicer::Slice S = H.sliceOf({0, 1, 1});
  ASSERT_TRUE(S.Valid);
  SliceDepGraph G =
      SliceDepGraph::build(H.Deps, S.Insts,
                           &H.Deps.forFunction(0).loops().loop(0), 0, H.PD);
  std::vector<unsigned> Order(G.size());
  for (unsigned I = 0; I < G.size(); ++I)
    Order[I] = I;
  RotationResult R = rotateForMinimalCarried(G, Order);
  EXPECT_LE(R.CarriedAfter, R.CarriedBefore);
  EXPECT_EQ(R.Order.size(), Order.size());
  // The rotated order is a permutation.
  std::set<unsigned> Seen(R.Order.begin(), R.Order.end());
  EXPECT_EQ(Seen.size(), Order.size());
}

TEST(LoopRotation, IllegalBoundariesRejected) {
  // A graph where every boundary splits an intra edge chain 0->1->2->3:
  // no rotation can happen.
  SchedHarness H(workloads::makeArcKernel(64, 1 << 10));
  slicer::Slice S = H.sliceOf({0, 1, 1});
  SliceDepGraph G = SliceDepGraph::build(H.Deps, S.Insts, nullptr, 0, H.PD);
  // With no loop, all edges are intra; a chain forbids splits, and with
  // no carried edges there is no profit anyway.
  std::vector<unsigned> Order(G.size());
  for (unsigned I = 0; I < G.size(); ++I)
    Order[I] = I;
  RotationResult R = rotateForMinimalCarried(G, Order);
  EXPECT_EQ(R.Boundary, 0u);
}

TEST(Scheduler, AvailableILPIsLowForPointerChases) {
  // Paper Section 3.2.1.2.2: address chains show little ILP, which is why
  // height-priority list scheduling suffices.
  SchedHarness H(workloads::makeEm3d());
  std::vector<profile::DelinquentLoad> DL =
      profile::selectDelinquentLoads(H.P, H.PD);
  ASSERT_FALSE(DL.empty());
  slicer::Slice S = H.sliceOf(DL.front().Ref);
  ASSERT_TRUE(S.Valid);
  ScheduledSlice Sched = H.Scheduler.schedule(S, SPModel::Chaining);
  EXPECT_LT(Sched.AvailableILP, 3.0);
  EXPECT_GE(Sched.AvailableILP, 1.0);
}

TEST(Scheduler, RegionScheduleLengthGrowsWithRegion) {
  SchedHarness H(workloads::makeHealth());
  // The plist loop's per-iteration length must be far smaller than the
  // visit procedure's per-invocation length.
  const FunctionDeps &FD = H.Deps.forFunction(1);
  ASSERT_GT(FD.loops().numLoops(), 0u);
  int LoopRegion = -1;
  for (unsigned I = 0; I < H.RG.numRegions(); ++I)
    if (H.RG.region(I).isLoop() && H.RG.region(I).Func == 1)
      LoopRegion = static_cast<int>(I);
  ASSERT_GE(LoopRegion, 0);
  uint64_t LoopLen = H.Scheduler.regionScheduleLength(LoopRegion);
  uint64_t ProcLen =
      H.Scheduler.regionScheduleLength(H.RG.procedureRegion(1));
  EXPECT_GT(ProcLen, LoopLen * 4);
}

namespace {

/// The graph SliceDepGraph::build made before the sorted id index: nodes
/// found through a std::map (a repeated instruction maps to its last
/// node) and the cross-function live-in scan run for every graph. Kept as
/// the reference the current builder must match exactly.
struct MapIndexedGraph {
  std::vector<DepNode> Nodes;
  std::vector<std::vector<unsigned>> Intra, Carried;
  std::map<InstRef, unsigned> Index;
};

MapIndexedGraph mapIndexedBuild(const ProgramDeps &Deps,
                                const std::vector<InstRef> &Insts,
                                const Loop *L, uint32_t LoopFunc,
                                const profile::ProfileData &PD,
                                bool PessimisticLoads,
                                const std::vector<uint32_t> *CallCosts,
                                const SpecDeps *Spec,
                                std::vector<SpecDrop> *Drops) {
  MapIndexedGraph G;
  const Program &P = Deps.program();
  for (const InstRef &I : Insts) {
    G.Index[I] = static_cast<unsigned>(G.Nodes.size());
    DepNode N;
    N.Ref = I;
    const Instruction &Inst = I.get(P);
    if (isLoad(Inst.Op)) {
      N.Latency = profiledLoadLatency(P, I, PD);
      if (PessimisticLoads)
        N.Latency = std::max(N.Latency, AssumedColdLoadLatency);
    } else if (Inst.Op == Opcode::Call || Inst.Op == Opcode::CallInd) {
      N.Latency = CallLatencyEstimate;
      if (CallCosts && Inst.Op == Opcode::Call &&
          Inst.Target < CallCosts->size() && (*CallCosts)[Inst.Target] > 0)
        N.Latency = (*CallCosts)[Inst.Target];
    } else
      N.Latency = latencyOf(Inst.Op);
    G.Nodes.push_back(N);
  }
  G.Intra.resize(G.Nodes.size());
  G.Carried.resize(G.Nodes.size());
  for (unsigned UI = 0; UI < G.Nodes.size(); ++UI) {
    const InstRef &Use = G.Nodes[UI].Ref;
    const FunctionDeps &FD = Deps.forFunction(Use.Func);
    auto Classify = [&](const InstRef &Def, unsigned DI, bool IsData) {
      bool SameLoopFunc = L && Def.Func == LoopFunc && Use.Func == LoopFunc &&
                          L->contains(Def.Block) && L->contains(Use.Block);
      if (!SameLoopFunc || FD.reachesWithoutBackedge(Def, Use, *L)) {
        G.Intra[DI].push_back(UI);
        return;
      }
      SpecDrop Drop;
      if (IsData && Spec &&
          Spec->shouldPrune(DepKind::Register, Def, Use, &Drop)) {
        if (Drops)
          Drops->push_back(Drop);
        return;
      }
      G.Carried[DI].push_back(UI);
    };
    for (const InstRef &Def : FD.dataSources(Use)) {
      auto It = G.Index.find(Def);
      if (It != G.Index.end() && It->second != UI)
        Classify(Def, It->second, /*IsData=*/true);
    }
    for (const InstRef &Ctrl : FD.controlSources(Use)) {
      auto It = G.Index.find(Ctrl);
      if (It != G.Index.end() && It->second != UI)
        Classify(Ctrl, It->second, /*IsData=*/false);
    }
    Use.get(P).forEachUse([&](Reg R2) {
      if ((R2.isInt() || R2.isPred()) && R2.Num == 0)
        return;
      if (!FD.reachingDefs().mayBeLiveIn(Use.Block, Use.Inst, R2))
        return;
      for (unsigned DI = 0; DI < G.Nodes.size(); ++DI) {
        if (DI == UI || G.Nodes[DI].Ref.Func == Use.Func)
          continue;
        if (G.Nodes[DI].Ref.get(P).def() == R2)
          G.Intra[DI].push_back(UI);
      }
    });
  }
  for (auto *Adj : {&G.Intra, &G.Carried})
    for (auto &Edges : *Adj) {
      std::sort(Edges.begin(), Edges.end());
      Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());
    }
  return G;
}

/// The region height as SliceScheduler::schedule computed it for every
/// candidate before the per-region memo: a fresh region graph per call.
uint64_t buildPerCallRegionHeight(SliceScheduler &Sched,
                                  const ProgramDeps &Deps,
                                  const RegionGraph &RG,
                                  const profile::ProfileData &PD,
                                  int RegionIdx) {
  const Region &R = RG.region(RegionIdx);
  const Loop *RegionLoop =
      R.Kind == RegionKind::Loop
          ? &Deps.forFunction(R.Func).loops().loop(R.LoopIdx)
          : nullptr;
  const std::vector<uint32_t> &Costs = Sched.callCosts();
  SliceDepGraph RegionG =
      SliceDepGraph::build(Deps, regionInstructions(RG, RegionIdx, Deps),
                           RegionLoop, R.Func, PD, /*PessimisticLoads=*/false,
                           &Costs);
  return std::max(RegionG.height(), Sched.regionScheduleLength(RegionIdx));
}

/// SliceScheduler's list scheduler before stamped vectors: the remaining
/// set is a std::set.
std::vector<unsigned> setListSchedule(const SliceDepGraph &G,
                                      const std::vector<uint64_t> &Heights,
                                      const std::vector<unsigned> &Subset) {
  std::set<unsigned> Remaining(Subset.begin(), Subset.end());
  std::vector<unsigned> Order;
  std::vector<unsigned> PredCount(G.size(), 0);
  for (unsigned V : Subset)
    for (unsigned W : G.intraSuccs()[V])
      if (Remaining.count(W))
        ++PredCount[W];
  std::vector<unsigned> Ready;
  for (unsigned V : Subset)
    if (PredCount[V] == 0)
      Ready.push_back(V);
  while (!Ready.empty()) {
    unsigned BestIdx = 0;
    for (unsigned I = 1; I < Ready.size(); ++I) {
      unsigned A = Ready[I], B = Ready[BestIdx];
      if (Heights[A] > Heights[B] ||
          (Heights[A] == Heights[B] && G.node(A).Ref < G.node(B).Ref))
        BestIdx = I;
    }
    unsigned V = Ready[BestIdx];
    Ready.erase(Ready.begin() + BestIdx);
    Remaining.erase(V);
    Order.push_back(V);
    for (unsigned W : G.intraSuccs()[V])
      if (Remaining.count(W) && --PredCount[W] == 0)
        Ready.push_back(W);
  }
  for (unsigned V : Remaining)
    Order.push_back(V);
  return Order;
}

/// SliceScheduler::schedule before the region-height memo and stamped
/// vectors: std::set closures for condition prediction, live-ins, carried
/// registers, inner-loop members and the critical sub-slice, a region
/// graph per call, and three DFS passes plus a repeated critical
/// list-schedule. Kept as the reference the current scheduler must match.
ScheduledSlice setClosureSchedule(SliceScheduler &Sched,
                                  const ProgramDeps &Deps,
                                  const RegionGraph &RG,
                                  const profile::ProfileData &PD,
                                  const ScheduleOptions &Opts,
                                  const SpecDeps *Spec,
                                  const slicer::Slice &S, SPModel Model) {
  ScheduledSlice Out;
  Out.LiveIns = S.LiveIns;
  const Program &P = Deps.program();
  const Region &R = RG.region(S.RegionIdx);
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
    Model = SPModel::Basic;
  Out.Model = Model;
  Out.RegionHeight = buildPerCallRegionHeight(Sched, Deps, RG, PD,
                                              S.RegionIdx);
  if (ChainLoop)
    Out.ChainTripCount = PD.tripCountOf(ChainFunc, *ChainLoop, 1.0);

  std::vector<InstRef> Members = S.Insts;
  SliceDepGraph G = SliceDepGraph::build(Deps, Members, ChainLoop, ChainFunc,
                                         PD, true, nullptr, Spec,
                                         &Out.SpecDrops);
  if (ChainLoop)
    for (unsigned V = 0; V < G.size(); ++V) {
      const InstRef &Ref = G.node(V).Ref;
      const Instruction &I = Ref.get(P);
      if (I.Op == Opcode::Br && Ref.Func == ChainFunc &&
          I.Target == ChainLoop->Header) {
        Out.HasConditionBranch = true;
        Out.ConditionBranch = Ref;
        break;
      }
    }

  if (Model == SPModel::Chaining && Out.HasConditionBranch &&
      Opts.EnableConditionPrediction) {
    int BranchIdx = G.indexOf(Out.ConditionBranch);
    std::vector<std::vector<unsigned>> RevAll(G.size());
    for (unsigned V = 0; V < G.size(); ++V) {
      for (unsigned W : G.intraSuccs()[V])
        RevAll[W].push_back(V);
      for (unsigned W : G.carriedSuccs()[V])
        RevAll[W].push_back(V);
    }
    std::set<unsigned> CondChain;
    std::vector<unsigned> Work{static_cast<unsigned>(BranchIdx)};
    while (!Work.empty()) {
      unsigned V = Work.back();
      Work.pop_back();
      if (!CondChain.insert(V).second)
        continue;
      for (unsigned W : RevAll[V])
        Work.push_back(W);
    }
    bool LoadDependent = false;
    for (unsigned V : CondChain)
      if (isLoad(G.node(V).Ref.get(P).Op))
        LoadDependent = true;
    if (LoadDependent) {
      Out.PredictCondition = true;
      std::set<InstRef> MemberSet(Members.begin(), Members.end());
      std::set<Reg> TargetBases;
      for (const InstRef &T : S.TargetLoads)
        TargetBases.insert(T.get(P).Src1);
      std::set<InstRef> Keep;
      std::vector<InstRef> KWork;
      for (const InstRef &M : Members) {
        const Instruction &I = M.get(P);
        Reg D = I.def();
        if (isLoad(I.Op) || (D.isValid() && TargetBases.count(D)))
          KWork.push_back(M);
      }
      while (!KWork.empty()) {
        InstRef M = KWork.back();
        KWork.pop_back();
        if (!Keep.insert(M).second)
          continue;
        for (const InstRef &Prod : Deps.forFunction(M.Func).dataSources(M))
          if (MemberSet.count(Prod))
            KWork.push_back(Prod);
      }
      for (const InstRef &M : Members)
        if (M.Func == ChainFunc && !ChainLoop->contains(M.Block))
          Keep.insert(M);
      if (Keep.size() < Members.size()) {
        std::vector<InstRef> Pruned;
        for (const InstRef &M : Members)
          if (Keep.count(M))
            Pruned.push_back(M);
        Members = std::move(Pruned);
        G = SliceDepGraph::build(Deps, Members, ChainLoop, ChainFunc, PD,
                                 true, nullptr, Spec, &Out.SpecDrops);
      }
    }
  }
  std::sort(Out.SpecDrops.begin(), Out.SpecDrops.end());
  Out.SpecDrops.erase(
      std::unique(Out.SpecDrops.begin(), Out.SpecDrops.end()),
      Out.SpecDrops.end());

  Out.SliceHeight = G.height();
  if (Out.SliceHeight > 0)
    Out.AvailableILP = static_cast<double>(G.totalLatency()) /
                       static_cast<double>(G.height());
  std::vector<uint64_t> Heights = G.nodeHeights();

  std::vector<unsigned> ChainIdx, PrologueIdx;
  std::vector<uint8_t> IsChain(G.size(), 1);
  for (unsigned V = 0; V < G.size(); ++V) {
    const InstRef &Ref = G.node(V).Ref;
    if (ChainLoop && Ref.Func == ChainFunc && !ChainLoop->contains(Ref.Block))
      IsChain[V] = 0;
    (IsChain[V] ? ChainIdx : PrologueIdx).push_back(V);
  }
  {
    std::set<Reg> DefsPro, SliceLive(S.LiveIns.begin(), S.LiveIns.end());
    for (unsigned V : PrologueIdx) {
      Reg D = G.node(V).Ref.get(P).def();
      if (D.isValid())
        DefsPro.insert(D);
    }
    std::set<Reg> ChainLive;
    for (unsigned V : ChainIdx)
      G.node(V).Ref.get(P).forEachUse([&](Reg U) {
        if (DefsPro.count(U) || SliceLive.count(U))
          ChainLive.insert(U);
      });
    for (const InstRef &T : S.TargetLoads) {
      Reg Base = T.get(P).Src1;
      if (DefsPro.count(Base) || SliceLive.count(Base))
        ChainLive.insert(Base);
    }
    Out.ChainLiveIns.assign(ChainLive.begin(), ChainLive.end());
  }
  {
    std::set<Reg> ChainLive(Out.ChainLiveIns.begin(), Out.ChainLiveIns.end());
    std::set<Reg> Defined;
    for (unsigned V : ChainIdx) {
      Reg D = G.node(V).Ref.get(P).def();
      if (D.isValid() && ChainLive.count(D))
        Defined.insert(D);
    }
    Out.CarriedRegs.assign(Defined.begin(), Defined.end());
  }
  {
    std::set<InstRef> Inner;
    for (unsigned V : ChainIdx) {
      const InstRef &Ref = G.node(V).Ref;
      const FunctionDeps &FD = Deps.forFunction(Ref.Func);
      int LI = FD.loops().innermostLoopOf(Ref.Block);
      if (LI < 0)
        continue;
      if (ChainLoop && Ref.Func == ChainFunc &&
          FD.loops().loop(LI).Header == ChainLoop->Header)
        continue;
      Inner.insert(Ref);
    }
    Out.InnerLoopMembers.assign(Inner.begin(), Inner.end());
  }

  if (Model == SPModel::Basic) {
    std::vector<unsigned> All(G.size());
    for (unsigned I = 0; I < G.size(); ++I)
      All[I] = I;
    for (unsigned V : setListSchedule(G, Heights, All))
      Out.NonCritical.push_back(G.node(V).Ref);
    if (Out.ChainLiveIns.empty())
      Out.ChainLiveIns = S.LiveIns;
    uint64_t H = Out.SliceHeight;
    if (R.Kind == RegionKind::Loop)
      H += Opts.TriggerOverhead;
    Out.SlackPerIteration = Out.RegionHeight > H ? Out.RegionHeight - H : 0;
    return Out;
  }

  if (Opts.EnableLoopRotation && !ChainIdx.empty()) {
    RotationResult Rot = rotateForMinimalCarried(G, ChainIdx);
    ChainIdx = Rot.Order;
    Out.RotationBoundary = Rot.Boundary;
    Out.CarriedEdgesBefore = Rot.CarriedBefore;
    Out.CarriedEdgesAfter = Rot.CarriedAfter;
  }
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
  std::set<Reg> CarriedSet(Out.CarriedRegs.begin(), Out.CarriedRegs.end());
  auto DefinesCarried = [&](unsigned V) {
    Reg D = G.node(V).Ref.get(P).def();
    return D.isValid() && CarriedSet.count(D);
  };
  std::set<unsigned> CriticalSet;
  for (const std::vector<unsigned> &C : Comps) {
    if (C.size() == 1 && !IsChain[C[0]])
      continue;
    bool NonDegenerate = C.size() > 1;
    if (C.size() == 1)
      for (unsigned W : G.carriedSuccs()[C[0]])
        if (W == C[0])
          NonDegenerate = true;
    if (!NonDegenerate)
      continue;
    bool CarriesLiveIns = false;
    for (unsigned V : C)
      if (DefinesCarried(V))
        CarriesLiveIns = true;
    if (CarriesLiveIns)
      CriticalSet.insert(C.begin(), C.end());
  }
  for (unsigned V : ChainIdx)
    if (DefinesCarried(V))
      CriticalSet.insert(V);
  std::vector<std::vector<unsigned>> RevIntra(G.size());
  for (unsigned V = 0; V < G.size(); ++V)
    for (unsigned W : G.intraSuccs()[V])
      RevIntra[W].push_back(V);
  if (Out.HasConditionBranch && !Out.PredictCondition) {
    int BranchIdx = G.indexOf(Out.ConditionBranch);
    if (BranchIdx >= 0) {
      std::set<unsigned> Chain;
      std::vector<unsigned> Work{static_cast<unsigned>(BranchIdx)};
      while (!Work.empty()) {
        unsigned V = Work.back();
        Work.pop_back();
        if (!Chain.insert(V).second)
          continue;
        for (unsigned W : RevIntra[V])
          if (IsChain[W])
            Work.push_back(W);
      }
      CriticalSet.insert(Chain.begin(), Chain.end());
    }
  }
  {
    std::vector<unsigned> Work(CriticalSet.begin(), CriticalSet.end());
    while (!Work.empty()) {
      unsigned V = Work.back();
      Work.pop_back();
      for (unsigned W : RevIntra[V])
        if (IsChain[W] && CriticalSet.insert(W).second)
          Work.push_back(W);
    }
  }
  std::vector<unsigned> CriticalVec, Rest;
  for (unsigned V : ChainIdx)
    (CriticalSet.count(V) ? CriticalVec : Rest).push_back(V);
  for (unsigned V : setListSchedule(G, Heights, PrologueIdx))
    Out.Prologue.push_back(G.node(V).Ref);
  for (unsigned V : setListSchedule(G, Heights, CriticalVec))
    Out.Critical.push_back(G.node(V).Ref);
  for (unsigned V : setListSchedule(G, Heights, Rest))
    Out.NonCritical.push_back(G.node(V).Ref);
  {
    std::vector<uint64_t> H(G.size(), 0);
    std::vector<unsigned> SchedOrder =
        setListSchedule(G, Heights, CriticalVec);
    for (auto It = SchedOrder.rbegin(); It != SchedOrder.rend(); ++It) {
      unsigned V = *It;
      uint64_t Best = 0;
      for (unsigned W : G.intraSuccs()[V])
        if (CriticalSet.count(W))
          Best = std::max(Best, H[W]);
      H[V] = Best + G.node(V).Latency;
    }
    for (unsigned V : CriticalVec)
      Out.CriticalHeight = std::max(Out.CriticalHeight, H[V]);
  }
  uint64_t Consumed =
      Out.CriticalHeight + Opts.SpawnOverheadBase +
      Opts.CopyLatency * static_cast<unsigned>(Out.ChainLiveIns.size());
  Out.SlackPerIteration =
      Out.RegionHeight > Consumed ? Out.RegionHeight - Consumed : 0;
  return Out;
}

/// One corpus program's analyses. The slicer keeps every dependence while
/// the graphs built over its slices may drop cold carried ones, so the
/// graph builder's SpecDrops path runs.
struct CorpusAnalyses {
  ProgramDeps Deps;
  RegionGraph RG;
  CallGraph CG;
  SpecDeps Spec;
  slicer::Slicer TheSlicer;

  explicit CorpusAnalyses(const tests::CorpusProgram &C)
      : Deps(C.P), RG(RegionGraph::build(Deps)),
        CG(CallGraph::build(C.P, C.PD.IndirectTargets, C.PD.CallSiteCounts)),
        Spec(Deps, SpecDepOptions{/*Enabled=*/true, /*Threshold=*/0.05},
             C.PD.depEvidence()),
        TheSlicer(Deps, RG, CG, C.PD) {}

  /// Every valid slice of every delinquent load, walking its regions
  /// outward as the tool does (one calling context per step).
  std::vector<slicer::Slice> slices(const tests::CorpusProgram &C) {
    std::vector<slicer::Slice> Out;
    for (const profile::DelinquentLoad &D :
         profile::selectDelinquentLoads(C.P, C.PD)) {
      std::vector<InstRef> Ctx;
      int RegionIdx = RG.innermostRegionOf(D.Ref, Deps);
      for (unsigned Depth = 0; Depth < 4 && RegionIdx >= 0; ++Depth) {
        slicer::Slice S = TheSlicer.computeSlice(D.Ref, RegionIdx, Ctx);
        if (S.Valid)
          Out.push_back(std::move(S));
        InstRef CrossedCall;
        bool WasProcedure = !RG.region(RegionIdx).isLoop();
        int Parent = RG.outwardParent(RegionIdx, CG, Deps, &CrossedCall);
        if (WasProcedure && Parent >= 0)
          Ctx.push_back(CrossedCall);
        RegionIdx = Parent;
      }
    }
    return Out;
  }
};

} // namespace

TEST(SchedulerDifferential, RegionHeightMatchesBuildPerCall) {
  size_t Regions = 0;
  for (const tests::CorpusProgram &C : tests::differentialCorpus()) {
    SCOPED_TRACE(C.Name);
    ProgramDeps Deps(C.P);
    RegionGraph RG = RegionGraph::build(Deps);
    SliceScheduler Sched(Deps, RG, C.PD);
    SliceScheduler Copy = Sched; // Shares the memo.
    for (unsigned R = 0; R < RG.numRegions(); ++R) {
      uint64_t Want = buildPerCallRegionHeight(Sched, Deps, RG, C.PD, R);
      ASSERT_EQ(Sched.regionHeight(R), Want) << "region " << R;
      ASSERT_EQ(Sched.regionHeight(R), Want) << "region " << R << " (memo)";
      ASSERT_EQ(Copy.regionHeight(R), Want) << "region " << R << " (copy)";
      ++Regions;
    }
  }
  EXPECT_GT(Regions, 500u);
}

TEST(SchedulerDifferential, DepGraphMatchesMapIndexedBuild) {
  size_t Graphs = 0, CrossFunction = 0, Drops = 0;
  for (const tests::CorpusProgram &C : tests::differentialCorpus()) {
    SCOPED_TRACE(C.Name);
    CorpusAnalyses A(C);
    const ProgramDeps &Deps = A.Deps;
    SliceScheduler Sched(Deps, A.RG, C.PD);
    const std::vector<uint32_t> &Costs = Sched.callCosts();

    auto Check = [&](const std::vector<InstRef> &Insts, const Loop *L,
                     uint32_t LoopFunc, bool Pessimistic,
                     const std::vector<uint32_t> *CallCosts,
                     const SpecDeps *Spec) {
      std::vector<SpecDrop> GotDrops, WantDrops;
      SliceDepGraph G = SliceDepGraph::build(Deps, Insts, L, LoopFunc, C.PD,
                                             Pessimistic, CallCosts, Spec,
                                             &GotDrops);
      MapIndexedGraph Want =
          mapIndexedBuild(Deps, Insts, L, LoopFunc, C.PD, Pessimistic,
                          CallCosts, Spec, &WantDrops);
      ASSERT_EQ(G.size(), Want.Nodes.size());
      for (unsigned V = 0; V < G.size(); ++V) {
        ASSERT_TRUE(G.node(V).Ref == Want.Nodes[V].Ref) << V;
        ASSERT_EQ(G.node(V).Latency, Want.Nodes[V].Latency) << V;
        ASSERT_EQ(G.indexOf(G.node(V).Ref),
                  static_cast<int>(Want.Index.at(G.node(V).Ref)))
            << V;
      }
      ASSERT_EQ(G.intraSuccs(), Want.Intra);
      ASSERT_EQ(G.carriedSuccs(), Want.Carried);
      ASSERT_TRUE(GotDrops == WantDrops);
      ++Graphs;
      Drops += WantDrops.size();
      for (const InstRef &I : Insts)
        if (I.Func != Insts.front().Func) {
          ++CrossFunction;
          break;
        }
    };

    for (unsigned R = 0; R < A.RG.numRegions(); ++R) {
      const Region &Reg = A.RG.region(R);
      const Loop *RegionLoop =
          Reg.isLoop() ? &Deps.forFunction(Reg.Func).loops().loop(Reg.LoopIdx)
                       : nullptr;
      Check(regionInstructions(A.RG, R, Deps), RegionLoop, Reg.Func,
            /*Pessimistic=*/false, &Costs, /*Spec=*/nullptr);
    }
    for (const slicer::Slice &S : A.slices(C)) {
      // The chain loop the scheduler classifies slice edges against.
      const Region &Reg = A.RG.region(S.RegionIdx);
      const FunctionDeps &LFD = Deps.forFunction(S.PrimaryLoad.Func);
      int LI = LFD.loops().innermostLoopOf(S.PrimaryLoad.Block);
      const Loop *ChainLoop =
          Reg.isLoop() ? &Deps.forFunction(Reg.Func).loops().loop(Reg.LoopIdx)
          : LI >= 0    ? &LFD.loops().loop(LI)
                       : nullptr;
      uint32_t ChainFunc = Reg.isLoop() ? Reg.Func : S.PrimaryLoad.Func;
      Check(S.Insts, ChainLoop, ChainFunc, /*Pessimistic=*/true, nullptr,
            &A.Spec);
      Check(S.Insts, nullptr, 0, /*Pessimistic=*/true, nullptr, nullptr);
    }
  }
  EXPECT_GT(Graphs, 1000u);
  EXPECT_GT(CrossFunction, 0u);
  EXPECT_GT(Drops, 0u);
}

TEST(SchedulerDifferential, ScheduleMatchesSetClosures) {
  size_t Schedules = 0, Predicted = 0, Critical = 0, Inner = 0, Drops = 0;
  for (const tests::CorpusProgram &C : tests::differentialCorpus()) {
    SCOPED_TRACE(C.Name);
    CorpusAnalyses A(C);
    for (bool Reduce : {true, false}) {
      ScheduleOptions Opts;
      Opts.EnableLoopRotation = Reduce;
      Opts.EnableConditionPrediction = Reduce;
      SliceScheduler Sched(A.Deps, A.RG, C.PD, Opts, &A.Spec);
      SliceScheduler Ref(A.Deps, A.RG, C.PD, Opts, &A.Spec);
      for (const slicer::Slice &S : A.slices(C))
        for (SPModel Model : {SPModel::Chaining, SPModel::Basic}) {
          SCOPED_TRACE(S.PrimaryLoad.str() + " " + modelName(Model));
          ScheduledSlice Got = Sched.schedule(S, Model);
          ScheduledSlice Want = setClosureSchedule(Ref, A.Deps, A.RG, C.PD,
                                                   Opts, &A.Spec, S, Model);
          ASSERT_EQ(Got.Model, Want.Model);
          ASSERT_TRUE(Got.Critical == Want.Critical);
          ASSERT_TRUE(Got.NonCritical == Want.NonCritical);
          ASSERT_TRUE(Got.Prologue == Want.Prologue);
          ASSERT_TRUE(Got.InnerLoopMembers == Want.InnerLoopMembers);
          ASSERT_TRUE(Got.CarriedRegs == Want.CarriedRegs);
          ASSERT_TRUE(Got.LiveIns == Want.LiveIns);
          ASSERT_TRUE(Got.ChainLiveIns == Want.ChainLiveIns);
          ASSERT_EQ(Got.HasConditionBranch, Want.HasConditionBranch);
          ASSERT_TRUE(Got.ConditionBranch == Want.ConditionBranch);
          ASSERT_EQ(Got.PredictCondition, Want.PredictCondition);
          ASSERT_EQ(Got.ChainTripCount, Want.ChainTripCount);
          ASSERT_EQ(Got.RegionHeight, Want.RegionHeight);
          ASSERT_EQ(Got.SliceHeight, Want.SliceHeight);
          ASSERT_EQ(Got.CriticalHeight, Want.CriticalHeight);
          ASSERT_EQ(Got.SlackPerIteration, Want.SlackPerIteration);
          ASSERT_EQ(Got.AvailableILP, Want.AvailableILP);
          ASSERT_EQ(Got.RotationBoundary, Want.RotationBoundary);
          ASSERT_EQ(Got.CarriedEdgesBefore, Want.CarriedEdgesBefore);
          ASSERT_EQ(Got.CarriedEdgesAfter, Want.CarriedEdgesAfter);
          ASSERT_TRUE(Got.SpecDrops == Want.SpecDrops);
          ++Schedules;
          Predicted += Want.PredictCondition;
          Critical += !Want.Critical.empty();
          Inner += !Want.InnerLoopMembers.empty();
          Drops += Want.SpecDrops.size();
        }
    }
  }
  // The corpus reaches every closure the old code built with std::set.
  EXPECT_GT(Schedules, 500u);
  EXPECT_GT(Predicted, 0u);
  EXPECT_GT(Critical, 0u);
  EXPECT_GT(Inner, 0u);
  EXPECT_GT(Drops, 0u);
}
