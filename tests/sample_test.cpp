//===- tests/sample_test.cpp - Sampled-simulation contracts ----------------===//
//
// Pins the contracts of the two-level sampled simulator (Simulator::
// runSampled):
//
//  * A 100%-detail plan is bit-identical to the unsampled simulator —
//    both the disabled 0:N:0 spelling and an enabled plan whose detail
//    interval covers the whole program.
//  * Sampled stats are bit-identical across --jobs 1/4/8: parallelism is
//    across whole simulations, never within one, so the plan's interval
//    schedule cannot depend on thread count.
//  * MainInsts stays exact under sampling and decomposes into the three
//    execution levels (measured detail + unmeasured ramp + functional).
//  * Measured extrapolation error on the pinned per-workload plans stays
//    under its bound, for every sampling tier bench_smoke reports. The
//    errors are deterministic, so exact thresholds are safe.
//  * The obs contract: architectural results (checksums) are exact, and
//    event tracing is cleanly disabled — a sampled run records nothing.
//
//===----------------------------------------------------------------------===//

#include "SimStatsEq.h"

#include "core/PostPassTool.h"
#include "harness/Experiment.h"
#include "obs/TraceSink.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ssp;
using namespace ssp::harness;

namespace {

double relErrPct(uint64_t Got, uint64_t Want) {
  if (Want == 0)
    return Got == 0 ? 0.0 : 100.0;
  return 100.0 *
         std::fabs(static_cast<double>(Got) - static_cast<double>(Want)) /
         static_cast<double>(Want);
}

SuiteRunner &runner() {
  static SuiteRunner R;
  return R;
}

ir::Program enhance(const workloads::Workload &W) {
  return runner().adaptedOf(W).Program.clone();
}

sim::MachineConfig sampledCfg(const char *Plan) {
  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  EXPECT_TRUE(sim::parseSamplingPlan(Plan, Cfg.Sample)) << Plan;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Plan parsing
//===----------------------------------------------------------------------===//

TEST(SamplingPlan, ParseAcceptsThreeAndFourFields) {
  sim::SamplingPlan P;
  ASSERT_TRUE(sim::parseSamplingPlan("1000:200:3000", P));
  EXPECT_EQ(P.WarmupInsts, 1000u);
  EXPECT_EQ(P.DetailInsts, 200u);
  EXPECT_EQ(P.FastForwardInsts, 3000u);
  EXPECT_EQ(P.RampInsts, 0u);
  EXPECT_TRUE(P.enabled());
  EXPECT_EQ(P.str(), "1000:200:3000");

  ASSERT_TRUE(sim::parseSamplingPlan("1000:200:3000:400", P));
  EXPECT_EQ(P.RampInsts, 400u);
  EXPECT_EQ(P.str(), "1000:200:3000:400");
}

TEST(SamplingPlan, ParseRejectsMalformedPlans) {
  sim::SamplingPlan P;
  EXPECT_FALSE(sim::parseSamplingPlan("", P));
  EXPECT_FALSE(sim::parseSamplingPlan("1000", P));
  EXPECT_FALSE(sim::parseSamplingPlan("1000:200", P));
  EXPECT_FALSE(sim::parseSamplingPlan("1000:200:3000:", P));
  EXPECT_FALSE(sim::parseSamplingPlan("1000:200:3000:400:5", P));
  EXPECT_FALSE(sim::parseSamplingPlan("10a0:200:3000", P));
  // An enabled plan with no detail interval can never measure anything.
  EXPECT_FALSE(sim::parseSamplingPlan("1000:0:3000", P));
}

// str() elides a zero ramp ("W:D:F") and prints it when nonzero
// ("W:D:F:R"); both spellings must re-parse to the identical plan, so the
// canonical text in adaptation records and bench JSON round-trips.
TEST(SamplingPlan, StrParsesBackToSamePlan) {
  sim::SamplingPlan P;
  ASSERT_TRUE(sim::parseSamplingPlan("30000:2000:66000", P));
  sim::SamplingPlan Q;
  ASSERT_TRUE(sim::parseSamplingPlan(P.str().c_str(), Q));
  EXPECT_EQ(Q.WarmupInsts, P.WarmupInsts);
  EXPECT_EQ(Q.DetailInsts, P.DetailInsts);
  EXPECT_EQ(Q.FastForwardInsts, P.FastForwardInsts);
  EXPECT_EQ(Q.RampInsts, P.RampInsts);
  EXPECT_EQ(Q.str(), P.str());

  ASSERT_TRUE(sim::parseSamplingPlan("30000:2000:66000:2000", P));
  ASSERT_TRUE(sim::parseSamplingPlan(P.str().c_str(), Q));
  EXPECT_EQ(Q.WarmupInsts, P.WarmupInsts);
  EXPECT_EQ(Q.DetailInsts, P.DetailInsts);
  EXPECT_EQ(Q.FastForwardInsts, P.FastForwardInsts);
  EXPECT_EQ(Q.RampInsts, P.RampInsts);
  EXPECT_EQ(Q.str(), P.str());
}

// The grammar is exactly `W:D:F[:R]`: no trailing colon, no fifth field,
// no empty fields, no bare separator. (Regression tests for the CLI
// usage-string fix — the accepted language must match the documented one.)
TEST(SamplingPlan, GrammarRejectsColonEdgeCases) {
  sim::SamplingPlan P;
  EXPECT_FALSE(sim::parseSamplingPlan("1:2:3:", P));
  EXPECT_FALSE(sim::parseSamplingPlan("1:2:3:4:5", P));
  EXPECT_FALSE(sim::parseSamplingPlan("1::3", P));
  EXPECT_FALSE(sim::parseSamplingPlan(":", P));
}

//===----------------------------------------------------------------------===//
// 100%-detail bit-identity
//===----------------------------------------------------------------------===//

TEST(SampledSimulation, DisabledPlanSpellingIsExact) {
  workloads::Workload W = workloads::makeEm3d();
  const ir::Program &P = runner().originalOf(W);
  sim::SimStats Exact =
      SuiteRunner::simulate(P, W, sim::MachineConfig::inOrder());
  // 0:N:0 — no warming, no fast-forward — is the 100%-detail plan; it is
  // not "enabled" and must take the exact path.
  sim::MachineConfig Cfg = sampledCfg("0:100:0");
  EXPECT_FALSE(Cfg.Sample.enabled());
  sim::SimStats S = SuiteRunner::simulate(P, W, Cfg);
  EXPECT_FALSE(S.Sampled);
  sim::expectStatsEqual(S, Exact, "0:N:0 plan");
}

TEST(SampledSimulation, WholeProgramDetailIntervalIsExact) {
  // An *enabled* plan whose first detail interval covers the whole
  // program: the sampled path runs, measures everything, extrapolates
  // with Ratio == 1, and must reproduce the exact stats bit for bit.
  workloads::Workload W = workloads::makeEm3d();
  const ir::Program &P = runner().originalOf(W);
  sim::SimStats Exact =
      SuiteRunner::simulate(P, W, sim::MachineConfig::inOrder());
  sim::SimStats S =
      SuiteRunner::simulate(P, W, sampledCfg("1:400000000:1:0"));
  EXPECT_TRUE(S.Sampled);
  EXPECT_EQ(S.SampleIntervals, 1u);
  EXPECT_EQ(S.SampleFunctionalInsts, 0u);
  sim::expectStatsEqual(S, Exact, "whole-program detail interval",
                        sim::SampleDiagnostics);
}

//===----------------------------------------------------------------------===//
// Determinism across --jobs
//===----------------------------------------------------------------------===//

TEST(SampledSimulation, StatsBitIdenticalAcrossJobCounts) {
  workloads::Workload W = workloads::makeEm3d();
  sim::SamplingPlan Plan;
  ASSERT_TRUE(sim::parseSamplingPlan("4000:2000:6000:4000", Plan));

  std::vector<sim::SimStats> BaseRuns, SspRuns;
  for (unsigned Jobs : {1u, 4u, 8u}) {
    SuiteRunner R;
    R.setSamplingPlan(Plan);
    support::ThreadPool Pool(Jobs);
    const BenchResult &B = R.run(W, &Pool);
    EXPECT_TRUE(B.ChecksumsOk) << Jobs << " jobs";
    EXPECT_TRUE(B.BaseIO.Sampled);
    BaseRuns.push_back(B.BaseIO);
    SspRuns.push_back(B.SspIO);
  }
  for (size_t I = 1; I < BaseRuns.size(); ++I) {
    sim::expectStatsEqual(BaseRuns[I], BaseRuns[0], "baseline in-order");
    sim::expectStatsEqual(SspRuns[I], SspRuns[0], "enhanced in-order");
  }
}

//===----------------------------------------------------------------------===//
// Exactness invariants of a genuinely sampled run
//===----------------------------------------------------------------------===//

TEST(SampledSimulation, MainInstsExactAndLevelsDecompose) {
  workloads::Workload W = workloads::makeEm3d();
  const ir::Program &P = runner().originalOf(W);
  sim::SimStats Exact =
      SuiteRunner::simulate(P, W, sim::MachineConfig::inOrder());
  bool ChecksumOk = false;
  sim::SimStats S = SuiteRunner::simulate(
      P, W, sampledCfg("4000:2000:8000:2000"), &ChecksumOk);

  EXPECT_TRUE(S.Sampled);
  EXPECT_GT(S.SampleIntervals, 1u);
  EXPECT_GT(S.SampleFunctionalInsts, 0u);
  EXPECT_GT(S.SampleRampInsts, 0u);
  // The functional levels execute architecturally, so instruction count
  // and program results are exact, not extrapolated.
  EXPECT_EQ(S.MainInsts, Exact.MainInsts);
  EXPECT_TRUE(ChecksumOk);
  // Every main instruction ran at exactly one level.
  EXPECT_EQ(S.SampleDetailInsts + S.SampleRampInsts +
                S.SampleFunctionalInsts,
            S.MainInsts);
}

//===----------------------------------------------------------------------===//
// Pinned extrapolation-error bounds (deterministic; see DESIGN.md for the
// plan/bound provenance — one case per bench_smoke tier)
//===----------------------------------------------------------------------===//

struct ErrorBoundCase {
  const char *Name;
  workloads::Workload (*Make)();
  bool Enhanced;
  const char *Plan;
  double CyclesBoundPct;
  double FatesBoundPct; ///< Negative: no fate bound (baseline runs).
};

class SampledErrorBound : public ::testing::TestWithParam<ErrorBoundCase> {};

TEST_P(SampledErrorBound, MeasuredErrorUnderBound) {
  const ErrorBoundCase &C = GetParam();
  workloads::Workload W = C.Make();
  ir::Program Enh;
  if (C.Enhanced)
    Enh = enhance(W);
  const ir::Program &P = C.Enhanced ? Enh : runner().originalOf(W);

  sim::SimStats Exact =
      SuiteRunner::simulate(P, W, sim::MachineConfig::inOrder());
  sim::SimStats S = SuiteRunner::simulate(P, W, sampledCfg(C.Plan));
  ASSERT_TRUE(S.Sampled);

  double CycErr = relErrPct(S.Cycles, Exact.Cycles);
  EXPECT_LE(CycErr, C.CyclesBoundPct)
      << C.Name << ": sampled " << S.Cycles << " exact " << Exact.Cycles;
  if (C.FatesBoundPct >= 0) {
    double FateErr =
        relErrPct(S.attributedPrefetches(), Exact.attributedPrefetches());
    EXPECT_LE(FateErr, C.FatesBoundPct)
        << C.Name << ": sampled " << S.attributedPrefetches() << " exact "
        << Exact.attributedPrefetches();
    // The bound must be about real work, not 0-vs-0 agreement.
    EXPECT_GT(Exact.attributedPrefetches(), 1000u) << C.Name;
  }
}

workloads::Workload makeStress128() {
  return workloads::makeStress(128, 32, 8);
}

workloads::Workload makeStress256() {
  return workloads::makeStress(256, 32, 8);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, SampledErrorBound,
    ::testing::Values(
        // em3d enhanced: the fate-bearing tier. The ~3% cycle bias is the
        // warm-cleanliness floor (warming lacks speculative-thread cache
        // pollution); fate totals are a true rate and extrapolate well.
        ErrorBoundCase{"em3d-enhanced", workloads::makeEm3d, true,
                       "4000:2000:6000:4000", 4.0, 2.0},
        // mcf baseline: short program, phase-aliased between an all-miss
        // first pricing pass and an L2-resident second one; the plan's
        // period (23k insts) matches the pass length, so each pass
        // contributes one detail window.
        ErrorBoundCase{"mcf-baseline", workloads::makeMcf, false,
                       "12000:2000:7000:2000", 3.0, -1.0},
        // stress baselines: the throughput-acceptance tiers of bench_smoke.
        ErrorBoundCase{"stress128-baseline", makeStress128, false,
                       "20000:2000:78000:2000", 2.0, -1.0},
        ErrorBoundCase{"stress256-baseline", makeStress256, false,
                       "20000:2000:78000:2000", 2.0, -1.0}),
    [](const ::testing::TestParamInfo<ErrorBoundCase> &I) {
      std::string N = I.param.Name;
      for (char &Ch : N)
        if (Ch == '-')
          Ch = '_';
      return N;
    });

//===----------------------------------------------------------------------===//
// obs contract: tracing is cleanly disabled under sampling
//===----------------------------------------------------------------------===//

TEST(SampledSimulation, TraceSinkRecordsNothingUnderSampling) {
  workloads::Workload W = workloads::makeEm3d();
  ir::Program P = enhance(W);
  obs::TraceSink Sink;
  sim::SimStats S =
      sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory,
                      sampledCfg("4000:2000:6000:4000"), &Sink)
          .Stats;
  EXPECT_TRUE(S.Sampled);
  // An extrapolated run cannot emit a faithful event stream; the
  // simulator detaches the sink rather than producing a partial one.
  EXPECT_EQ(Sink.recorded(), 0u);
}

} // namespace
