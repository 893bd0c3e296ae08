//===- tests/trigger_test.cpp - Unit tests for trigger placement ----------===//

#include "analysis/RegionGraph.h"
#include "ir/IRBuilder.h"
#include "profile/Profile.h"
#include "sim/Run.h"
#include "sched/Scheduler.h"
#include "slicer/Slicer.h"
#include "trigger/MinCut.h"
#include "trigger/TriggerPlacer.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::analysis;
using namespace ssp::trigger;

//===----------------------------------------------------------------------===//
// Max-flow / min-cut reference
//===----------------------------------------------------------------------===//

TEST(MinCut, SingleEdge) {
  std::vector<FlowEdge> E = {{0, 1, 7}};
  EXPECT_EQ(maxFlowMinCut(2, 0, 1, E), 7u);
}

TEST(MinCut, ParallelPathsSum) {
  // 0->1->3 (cap 5,4) and 0->2->3 (cap 3,9): flow = min(5,4)+min(3,9)=7.
  std::vector<FlowEdge> E = {{0, 1, 5}, {1, 3, 4}, {0, 2, 3}, {2, 3, 9}};
  EXPECT_EQ(maxFlowMinCut(4, 0, 3, E), 7u);
}

TEST(MinCut, BottleneckInMiddle) {
  std::vector<FlowEdge> E = {{0, 1, 100}, {1, 2, 1}, {2, 3, 100}};
  std::vector<size_t> Cut;
  EXPECT_EQ(maxFlowMinCut(4, 0, 3, E, &Cut), 1u);
  ASSERT_EQ(Cut.size(), 1u);
  EXPECT_EQ(Cut[0], 1u); // The 1-capacity edge.
}

TEST(MinCut, DisconnectedIsZero) {
  std::vector<FlowEdge> E = {{0, 1, 5}};
  EXPECT_EQ(maxFlowMinCut(3, 0, 2, E), 0u);
}

TEST(MinCut, ClassicCLRSExample) {
  // A 6-node network with known max flow 23.
  std::vector<FlowEdge> E = {{0, 1, 16}, {0, 2, 13}, {1, 2, 10}, {2, 1, 4},
                             {1, 3, 12}, {3, 2, 9},  {2, 4, 14}, {4, 3, 7},
                             {3, 5, 20}, {4, 5, 4}};
  EXPECT_EQ(maxFlowMinCut(6, 0, 5, E), 23u);
}

//===----------------------------------------------------------------------===//
// Cut-set checking
//===----------------------------------------------------------------------===//

namespace {

/// CFG: entry(0) -> {1,2} -> 3(header) loop -> 4 exit.
Program makeTwoEntryLoop() {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  uint32_t B0 = B.createBlock("entry");
  uint32_t B1 = B.createBlock("left");
  uint32_t B2 = B.createBlock("right");
  uint32_t B3 = B.createBlock("header");
  uint32_t B4 = B.createBlock("exit");
  B.setInsertPoint(B0);
  B.movI(ireg(1), 0);
  B.cmpI(CondCode::EQ, preg(1), ireg(1), 1);
  B.br(preg(1), B2); // Falls to left.
  B.setInsertPoint(B1);
  B.movI(ireg(2), 1);
  B.jmp(B3);
  B.setInsertPoint(B2);
  B.movI(ireg(2), 2);
  B.jmp(B3);
  B.setInsertPoint(B3);
  B.addI(ireg(1), ireg(1), 1);
  B.cmpI(CondCode::LT, preg(2), ireg(1), 10);
  B.br(preg(2), B3);
  B.setInsertPoint(B4);
  B.ret();
  P.setEntry(0);
  return P;
}

} // namespace

TEST(TriggerPlacer, CutSetAcceptsBothEntryTriggers) {
  Program P = makeTwoEntryLoop();
  CFG G = CFG::build(P.func(0));
  std::vector<TriggerPlacement> Both = {{{0, 1, 0}}, {{0, 2, 0}}};
  EXPECT_TRUE(TriggerPlacer::isCutSet(G, Both, 3));
}

TEST(TriggerPlacer, CutSetRejectsMissingEntry) {
  Program P = makeTwoEntryLoop();
  CFG G = CFG::build(P.func(0));
  std::vector<TriggerPlacement> OnlyLeft = {{{0, 1, 0}}};
  EXPECT_FALSE(TriggerPlacer::isCutSet(G, OnlyLeft, 3))
      << "the right entry path reaches the loop untriggered";
}

TEST(TriggerPlacer, CutSetRejectsDoubleCrossing) {
  Program P = makeTwoEntryLoop();
  CFG G = CFG::build(P.func(0));
  // Entry + left: a path entry->left crosses two triggers.
  std::vector<TriggerPlacement> Doubled = {{{0, 0, 0}}, {{0, 1, 0}}};
  EXPECT_FALSE(TriggerPlacer::isCutSet(G, Doubled, 3));
}

TEST(TriggerPlacer, EntryBlockAloneIsACut) {
  Program P = makeTwoEntryLoop();
  CFG G = CFG::build(P.func(0));
  std::vector<TriggerPlacement> Entry = {{{0, 0, 0}}};
  EXPECT_TRUE(TriggerPlacer::isCutSet(G, Entry, 3));
}

//===----------------------------------------------------------------------===//
// Placement on real workloads
//===----------------------------------------------------------------------===//

namespace {

struct PlaceHarness {
  Program P;
  profile::ProfileData PD;
  ProgramDeps Deps;
  RegionGraph RG;
  CallGraph CG;

  explicit PlaceHarness(const workloads::Workload &W)
      : P(W.Build()), PD(profileIt(P, W)), Deps(P),
        RG(RegionGraph::build(Deps)),
        CG(CallGraph::build(P, PD.IndirectTargets, PD.CallSiteCounts)) {}

  static profile::ProfileData profileIt(const Program &P,
                                        const workloads::Workload &W) {
    LinkedProgram LP = LinkedProgram::link(P);
    mem::SimMemory Mem;
    W.BuildMemory(Mem);
    profile::ProfileData PD = profile::collectControlFlowProfile(LP, Mem);
    // Timing pass for the cache profile (delinquent-load selection).
    profile::addCacheProfile(
        PD, sim::runProgram(LP, W.BuildMemory, sim::MachineConfig::inOrder())
                .Stats);
    return PD;
  }
};

} // namespace

TEST(TriggerPlacer, ChainingTriggerHoistsOutOfLoop) {
  PlaceHarness H(workloads::makeArcKernel(64, 1 << 10));
  slicer::Slicer S(H.Deps, H.RG, H.CG, H.PD);
  InstRef Load{0, 1, 1};
  slicer::Slice Sl =
      S.computeSlice(Load, H.RG.innermostRegionOf(Load, H.Deps));
  ASSERT_TRUE(Sl.Valid);
  sched::SliceScheduler Sched(H.Deps, H.RG, H.PD);
  sched::ScheduledSlice SS = Sched.schedule(Sl, sched::SPModel::Chaining);
  TriggerPlacer Placer(H.Deps, H.RG, H.PD);
  TriggerPlan Plan = Placer.place(Sl, SS);

  ASSERT_EQ(Plan.Triggers.size(), 1u);
  // Outside the loop (the loop is block 1).
  EXPECT_NE(Plan.Triggers[0].Where.Block, 1u);
  EXPECT_FALSE(Plan.PerIteration);
  // Forms a cut over paths into the loop header.
  EXPECT_TRUE(TriggerPlacer::isCutSet(H.Deps.forFunction(0).cfg(),
                                      Plan.Triggers, 1));
  // A restart trigger sits at the header.
  ASSERT_EQ(Plan.RestartTriggers.size(), 1u);
  EXPECT_EQ(Plan.RestartTriggers[0].Where.Block, 1u);
}

TEST(TriggerPlacer, BasicModelTriggersPerIteration) {
  PlaceHarness H(workloads::makeArcKernel(64, 1 << 10));
  slicer::Slicer S(H.Deps, H.RG, H.CG, H.PD);
  InstRef Load{0, 1, 1};
  slicer::Slice Sl =
      S.computeSlice(Load, H.RG.innermostRegionOf(Load, H.Deps));
  sched::SliceScheduler Sched(H.Deps, H.RG, H.PD);
  sched::ScheduledSlice SS = Sched.schedule(Sl, sched::SPModel::Basic);
  TriggerPlacer Placer(H.Deps, H.RG, H.PD);
  TriggerPlan Plan = Placer.place(Sl, SS);
  EXPECT_TRUE(Plan.PerIteration);
  ASSERT_EQ(Plan.Triggers.size(), 1u);
  EXPECT_EQ(Plan.Triggers[0].Where.Block, 1u); // In the loop header.
}

TEST(TriggerPlacer, HeuristicMatchesMinCutOnSingleEntryLoop) {
  PlaceHarness H(workloads::makeArcKernel(64, 1 << 10));
  slicer::Slicer S(H.Deps, H.RG, H.CG, H.PD);
  InstRef Load{0, 1, 1};
  slicer::Slice Sl =
      S.computeSlice(Load, H.RG.innermostRegionOf(Load, H.Deps));
  sched::SliceScheduler Sched(H.Deps, H.RG, H.PD);
  sched::ScheduledSlice SS = Sched.schedule(Sl, sched::SPModel::Chaining);
  TriggerPlacer Placer(H.Deps, H.RG, H.PD);
  TriggerPlan Plan = Placer.place(Sl, SS);
  EXPECT_EQ(Plan.HeuristicCost, Placer.minCutCost(Sl));
}

TEST(TriggerPlacer, ProcedureRegionTriggerAfterLiveInStore) {
  // health: the visit prologue reads the spilled village pointer from the
  // stack; the trigger must be placed after the spilling store.
  PlaceHarness H(workloads::makeHealth());
  slicer::Slicer S(H.Deps, H.RG, H.CG, H.PD);
  std::vector<profile::DelinquentLoad> DL =
      profile::selectDelinquentLoads(H.P, H.PD);
  ASSERT_FALSE(DL.empty());
  int Proc = H.RG.procedureRegion(1);
  slicer::Slice Sl = S.computeSlice(DL.front().Ref, Proc);
  ASSERT_TRUE(Sl.Valid) << Sl.RejectReason;
  sched::SliceScheduler Sched(H.Deps, H.RG, H.PD);
  sched::ScheduledSlice SS = Sched.schedule(Sl, sched::SPModel::Chaining);
  TriggerPlacer Placer(H.Deps, H.RG, H.PD);
  TriggerPlan Plan = Placer.place(Sl, SS);
  ASSERT_EQ(Plan.Triggers.size(), 1u);
  EXPECT_EQ(Plan.Triggers[0].Where.Block, 0u);
  // Entry block: [0]=addI sp, [1]=store V -> trigger at index >= 2.
  EXPECT_GE(Plan.Triggers[0].Where.Inst, 2u);
}
