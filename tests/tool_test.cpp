//===- tests/tool_test.cpp - End-to-end post-pass tool tests --------------===//
//
// Drives the full pipeline of the paper on the arc kernel (Figure 3's
// shape): profile -> delinquent loads -> slice -> schedule -> trigger ->
// rewrite -> simulate, checking the SSP invariants and that the enhanced
// binary is faster on the in-order model.
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "sim/Run.h"
#include "workloads/Workload.h"

#include "ProfiledFixture.h"
#include "StructuralCheck.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::workloads;
using namespace ssp::core;

namespace {

struct AdaptedRun {
  ir::Program Orig;
  ir::Program Enhanced;
  AdaptationReport Report;
  Workload W;

  sim::SimStats run(const ir::Program &P, sim::MachineConfig Cfg,
                    uint64_t *Checksum = nullptr) const {
    sim::RunOutcome Out =
        sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory, Cfg);
    if (Checksum) {
      EXPECT_TRUE(Out.Result.has_value());
      *Checksum = Out.Result.value_or(0);
    }
    return Out.Stats;
  }
};

AdaptedRun adaptWorkload(Workload W, ToolOptions Opts = ToolOptions()) {
  // Build + profile once per workload per process (see ProfiledFixture.h);
  // only the adaptation itself reruns per test.
  const ProfiledWorkload &PW = profiledWorkload(W);
  AdaptedRun R;
  R.W = PW.W;
  R.Orig = PW.P.clone();
  PostPassTool Tool(R.Orig, PW.PD, Opts);
  R.Enhanced = Tool.adapt(&R.Report);
  return R;
}

} // namespace

TEST(PostPassTool, ArcKernelProducesSlices) {
  AdaptedRun R = adaptWorkload(makeArcKernel());
  EXPECT_GE(R.Report.DelinquentLoads, 1u);
  ASSERT_GE(R.Report.numSlices(), 1u);
  EXPECT_GT(R.Report.Rewrite.TriggersInserted, 0u);
  EXPECT_GT(R.Report.Rewrite.SliceInsts, 0u);
}

TEST(PostPassTool, EnhancedBinaryIsWellFormed) {
  AdaptedRun R = adaptWorkload(makeArcKernel());
  EXPECT_TRUE(tests::wellFormed(R.Enhanced));
}

TEST(PostPassTool, PreservesArchitecturalState) {
  AdaptedRun R = adaptWorkload(makeArcKernel());
  uint64_t Base = 0, Ssp = 0;
  R.run(R.Orig, sim::MachineConfig::inOrder(), &Base);
  R.run(R.Enhanced, sim::MachineConfig::inOrder(), &Ssp);
  EXPECT_EQ(Base, Ssp)
      << "speculative precomputation must not change program results";
}

TEST(PostPassTool, SpeedsUpInOrderArcKernel) {
  AdaptedRun R = adaptWorkload(makeArcKernel());
  sim::SimStats Base = R.run(R.Orig, sim::MachineConfig::inOrder());
  sim::SimStats Ssp = R.run(R.Enhanced, sim::MachineConfig::inOrder());
  EXPECT_GT(Ssp.TriggersFired, 0u);
  EXPECT_GT(Ssp.SpawnsSucceeded, 0u);
  EXPECT_LT(Ssp.Cycles, Base.Cycles)
      << "automatic SSP adaptation should speed up the in-order model";
}

TEST(PostPassTool, SliceUsesChainingForLoop) {
  AdaptedRun R = adaptWorkload(makeArcKernel());
  ASSERT_GE(R.Report.numSlices(), 1u);
  EXPECT_EQ(R.Report.Slices[0].Model, sched::SPModel::Chaining)
      << "a hot do-across loop should select chaining SP";
}

TEST(PostPassTool, DisablingChainingFallsBackToBasic) {
  ToolOptions Opts;
  Opts.EnableChaining = false;
  AdaptedRun R = adaptWorkload(makeArcKernel(), Opts);
  for (const SliceReport &S : R.Report.Slices)
    EXPECT_EQ(S.Model, sched::SPModel::Basic);
}

TEST(PostPassTool, NoStoresInSliceBlocks) {
  AdaptedRun R = adaptWorkload(makeArcKernel());
  for (uint32_t FI = 0; FI < R.Enhanced.numFuncs(); ++FI) {
    const ir::Function &F = R.Enhanced.func(FI);
    for (const ir::BasicBlock &BB : F.blocks()) {
      if (BB.Kind != ir::BlockKind::Slice)
        continue;
      for (const ir::Instruction &I : BB.Insts)
        EXPECT_FALSE(ir::isStore(I.Op))
            << "p-slice contains store: " << I.str();
    }
  }
}

TEST(PostPassTool, ReportSlackAndILPAreSane) {
  AdaptedRun R = adaptWorkload(makeArcKernel());
  ASSERT_GE(R.Report.numSlices(), 1u);
  const SliceReport &S = R.Report.Slices[0];
  EXPECT_GT(S.SlackPerIteration, 0u)
      << "the selected slice must have positive slack";
  EXPECT_GE(S.AvailableILP, 1.0);
  EXPECT_GT(S.Size, 0u);
  EXPECT_GT(S.LiveIns, 0u);
}

TEST(PostPassTool, HeuristicTriggerCostMatchesMinCutOnSimpleLoop) {
  AdaptedRun R = adaptWorkload(makeArcKernel());
  ASSERT_GE(R.Report.numSlices(), 1u);
  const SliceReport &S = R.Report.Slices[0];
  // A single-entry loop: the heuristic trigger is exactly the min cut.
  EXPECT_EQ(S.HeuristicTriggerCost, S.MinCutTriggerCost);
}

TEST(PostPassTool, IdempotentReportAcrossRuns) {
  AdaptedRun A = adaptWorkload(makeArcKernel());
  AdaptedRun B = adaptWorkload(makeArcKernel());
  ASSERT_EQ(A.Report.numSlices(), B.Report.numSlices());
  for (unsigned I = 0; I < A.Report.numSlices(); ++I) {
    EXPECT_EQ(A.Report.Slices[I].Size, B.Report.Slices[I].Size);
    EXPECT_EQ(A.Report.Slices[I].LiveIns, B.Report.Slices[I].LiveIns);
  }
}

TEST(PostPassTool, MaxRegionDepthZeroDisablesAdaptation) {
  ToolOptions Opts;
  Opts.MaxRegionDepth = 0;
  AdaptedRun R = adaptWorkload(makeArcKernel(), Opts);
  EXPECT_EQ(R.Report.numSlices(), 0u);
  EXPECT_EQ(R.Report.Rewrite.TriggersInserted, 0u);
}

TEST(PostPassTool, HugeMinSlackRejectsEverything) {
  ToolOptions Opts;
  Opts.MinSlackCycles = 1u << 30;
  AdaptedRun R = adaptWorkload(makeArcKernel(), Opts);
  EXPECT_EQ(R.Report.numSlices(), 0u);
}

TEST(PostPassTool, CoverageZeroSelectsNoLoads) {
  ToolOptions Opts;
  Opts.MaxDelinquentLoads = 0;
  AdaptedRun R = adaptWorkload(makeArcKernel(), Opts);
  EXPECT_EQ(R.Report.DelinquentLoads, 0u);
  EXPECT_EQ(R.Report.numSlices(), 0u);
}

TEST(PostPassTool, RestartTriggersCanBeDisabled) {
  ToolOptions Opts;
  Opts.EnableRestartTriggers = false;
  AdaptedRun With = adaptWorkload(makeArcKernel());
  AdaptedRun Without = adaptWorkload(makeArcKernel(), Opts);
  EXPECT_LT(Without.Report.Rewrite.TriggersInserted,
            With.Report.Rewrite.TriggersInserted);
}

TEST(PostPassTool, UnadaptedProgramStillRunsCorrectly) {
  // Even when nothing is adapted, the rewrite path must produce a
  // faithful clone.
  ToolOptions Opts;
  Opts.MaxRegionDepth = 0;
  AdaptedRun R = adaptWorkload(makeArcKernel(), Opts);
  uint64_t Base = 0, Clone = 0;
  R.run(R.Orig, sim::MachineConfig::inOrder(), &Base);
  sim::SimStats S = R.run(R.Enhanced, sim::MachineConfig::inOrder(),
                          &Clone);
  EXPECT_EQ(Base, Clone);
  EXPECT_EQ(S.TriggersFired, 0u);
}

TEST(PostPassTool, ProfilesEachWorkloadOncePerProcess) {
  // The shared fixture contract: every adaptWorkload() above reused one
  // profiled arc kernel; profiling must not have rerun per test.
  adaptWorkload(makeArcKernel());
  adaptWorkload(makeArcKernel());
  EXPECT_EQ(profileRuns(), 1u)
      << "profiledWorkload must build and profile each workload once";
}
