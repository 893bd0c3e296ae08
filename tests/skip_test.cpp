//===- tests/skip_test.cpp - Idle-cycle skipping differential --------------===//
//
// The event-driven simulator's contract: SimStats are bit-identical with
// idle-cycle skipping enabled (the default) and disabled (--no-skip). The
// skip logic jumps over spans in which nothing fetches, issues, dispatches,
// completes or retires, bulk-accounting the Figure-10 classification for
// the span; these tests pin every counter — including CatCycles and the
// throttle counters — across both modes, for every registered workload on
// both machine models, in the style of tests/parallel_test.cpp.
//
// SkippedCycles / SkipEvents are simulator diagnostics that differ between
// the modes by design and are deliberately excluded from the comparison.
//
//===----------------------------------------------------------------------===//

#include "SimStatsEq.h"

#include "core/PostPassTool.h"
#include "harness/Experiment.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::harness;

namespace {

void expectSkipMatches(const sim::SimStats &Skip,
                       const sim::SimStats &NoSkip, const std::string &What) {
  sim::expectStatsEqual(Skip, NoSkip, What, sim::SkipDiagnostics);
  // A serial run never skips; the diagnostics must say so.
  EXPECT_EQ(NoSkip.SkippedCycles, 0u) << What;
  EXPECT_EQ(NoSkip.SkipEvents, 0u) << What;
}

sim::MachineConfig cfgFor(sim::PipelineKind Pipe, bool SkipEnabled) {
  sim::MachineConfig Cfg = Pipe == sim::PipelineKind::InOrder
                               ? sim::MachineConfig::inOrder()
                               : sim::MachineConfig::outOfOrder();
  Cfg.SkipIdleCycles = SkipEnabled;
  return Cfg;
}

/// Simulates \p P under both modes on \p Pipe and pins the stats.
void diffOnPipe(const ir::Program &P, const workloads::Workload &W,
                sim::PipelineKind Pipe, const std::string &What) {
  bool OkSkip = true, OkNoSkip = true;
  sim::SimStats Skip =
      SuiteRunner::simulate(P, W, cfgFor(Pipe, true), &OkSkip);
  sim::SimStats NoSkip =
      SuiteRunner::simulate(P, W, cfgFor(Pipe, false), &OkNoSkip);
  expectSkipMatches(Skip, NoSkip, What);
  EXPECT_TRUE(OkSkip);
  EXPECT_TRUE(OkNoSkip);
  // On the in-order model the memory-bound workloads stall for hundreds of
  // cycles at a time: skipping must actually engage, or the test only
  // proves --no-skip equals itself.
  if (Pipe == sim::PipelineKind::InOrder) {
    EXPECT_GT(Skip.SkippedCycles, 0u) << What;
  }
}

/// One shared runner: profiles and original binaries are cached across
/// test cases (skipping does not affect profiling).
SuiteRunner &runner() {
  static SuiteRunner R;
  return R;
}

ir::Program enhance(const workloads::Workload &W) {
  return runner().adaptedOf(W).Program.clone();
}

class SkipDifferential
    : public ::testing::TestWithParam<sim::PipelineKind> {};

// Every registered paper workload, enhanced binary (triggers, spawns and
// speculative threads all active), both pipelines, both modes.
TEST_P(SkipDifferential, PaperSuiteEnhanced) {
  for (const workloads::Workload &W : workloads::paperSuite()) {
    SCOPED_TRACE(W.Name);
    diffOnPipe(enhance(W), W, GetParam(), "enhanced " + W.Name);
  }
}

// Unadapted baselines: the no-speculation pipelines must skip-match too.
TEST_P(SkipDifferential, BaselinesUnadapted) {
  for (const workloads::Workload &W :
       {workloads::makeEm3d(), workloads::makeMst(), workloads::makeVpr()}) {
    SCOPED_TRACE(W.Name);
    diffOnPipe(runner().originalOf(W), W, GetParam(),
               "baseline " + W.Name);
  }
}

// The Section 4.5 hand-adapted binaries ship their own chk.c placement.
TEST_P(SkipDifferential, HandAdapted) {
  for (const workloads::Workload &W : {workloads::makeMcfHandAdapted(),
                                       workloads::makeHealthHandAdapted()}) {
    SCOPED_TRACE(W.Name);
    diffOnPipe(W.Build(), W, GetParam(), "hand-adapted " + W.Name);
  }
}

// Dynamic throttling: evaluateThrottle mutates trigger records at its
// 16,384-cycle boundaries, so skipped spans must never cross one. The
// phased kernel is the workload whose chains go stale, producing nonzero
// ThrottleEvents.
TEST_P(SkipDifferential, ThrottleBoundaries) {
  workloads::Workload W = workloads::makePhasedKernel();
  ir::Program Enhanced = enhance(W);
  sim::MachineConfig Skip = cfgFor(GetParam(), true);
  sim::MachineConfig NoSkip = cfgFor(GetParam(), false);
  Skip.EnableSSPThrottle = NoSkip.EnableSSPThrottle = true;
  sim::SimStats A = SuiteRunner::simulate(Enhanced, W, Skip);
  sim::SimStats B = SuiteRunner::simulate(Enhanced, W, NoSkip);
  expectSkipMatches(A, B, "throttled phased kernel");
}

INSTANTIATE_TEST_SUITE_P(Pipelines, SkipDifferential,
                         ::testing::Values(sim::PipelineKind::InOrder,
                                           sim::PipelineKind::OutOfOrder),
                         [](const auto &Info) {
                           return Info.param == sim::PipelineKind::InOrder
                                      ? "InOrder"
                                      : "OutOfOrder";
                         });

// The harness plumbing: a SuiteRunner with skipping disabled produces the
// same BenchResult as the default runner.
TEST(SkipDifferential, SuiteRunnerFlagMatches) {
  workloads::Workload W = workloads::makeEm3d();
  SuiteRunner Default;
  SuiteRunner NoSkip;
  NoSkip.setSkipIdleCycles(false);
  const BenchResult &A = Default.run(W);
  const BenchResult &B = NoSkip.run(W);
  expectSkipMatches(A.BaseIO, B.BaseIO, "BaseIO");
  expectSkipMatches(A.SspIO, B.SspIO, "SspIO");
  expectSkipMatches(A.BaseOOO, B.BaseOOO, "BaseOOO");
  expectSkipMatches(A.SspOOO, B.SspOOO, "SspOOO");
  EXPECT_EQ(A.ChecksumsOk, B.ChecksumsOk);
  EXPECT_GT(A.BaseIO.SkippedCycles, 0u);
}

} // namespace
