//===- tests/pipeline_test.cpp - SuiteRunner against the old pipeline -----===//
//
// SuiteRunner takes the in-order baseline from the profile's timing pass
// instead of simulating it a second time. referenceResult below is a copy
// of the pipeline it replaced: profile, adapt, then four fresh
// simulations. Every fullSuite() program, under three runner settings
// (default, no idle-cycle skipping, a sampling plan) and on pools of one
// and four threads, must give the same four SimStats, the same report and
// the same checksum verdict. ParallelDeterminism cannot catch a wrong
// reuse, because both of its runners would reuse alike.
//
// The image counts pin the saving itself: a default run() builds five
// memory images (two profiling passes, three simulations); a setting
// under which the profile is not the baseline builds six.
//
//===----------------------------------------------------------------------===//

#include "SimStatsEq.h"

#include "core/ReportRender.h"
#include "harness/Experiment.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <tuple>

using namespace ssp;
using namespace ssp::harness;

namespace {

enum class Setting { Default, NoSkip, Sampled };
const Setting AllSettings[] = {Setting::Default, Setting::NoSkip,
                               Setting::Sampled};

const char *settingName(Setting S) {
  switch (S) {
  case Setting::Default:
    return "default";
  case Setting::NoSkip:
    return "noskip";
  case Setting::Sampled:
    return "sampled";
  }
  return "?";
}

void PrintTo(Setting S, std::ostream *OS) { *OS << settingName(S); }

sim::SamplingPlan samplePlan() {
  sim::SamplingPlan Plan;
  EXPECT_TRUE(sim::parseSamplingPlan("4000:2000:6000:4000", Plan));
  return Plan;
}

void applySetting(Setting S, SuiteRunner &R) {
  if (S == Setting::NoSkip)
    R.setSkipIdleCycles(false);
  if (S == Setting::Sampled)
    R.setSamplingPlan(samplePlan());
}

sim::MachineConfig cfgFor(Setting S, bool OOO) {
  sim::MachineConfig C = OOO ? sim::MachineConfig::outOfOrder()
                             : sim::MachineConfig::inOrder();
  C.SkipIdleCycles = S != Setting::NoSkip;
  if (S == Setting::Sampled)
    C.Sample = samplePlan();
  return C;
}

/// The replaced SuiteRunner::computeResult: five timing runs, the
/// in-order baseline simulated afresh after the profile's own.
BenchResult referenceResult(const workloads::Workload &W, Setting S) {
  BenchResult R;
  R.Name = W.Name;
  ir::Program Orig = W.Build();
  profile::ProfileData PD = core::profileProgram(Orig, W.BuildMemory);
  core::PostPassTool Tool(Orig, PD);
  ir::Program Enhanced = Tool.adapt(&R.Report);
  bool Ok[4] = {false, false, false, false};
  R.BaseIO = SuiteRunner::simulate(Orig, W, cfgFor(S, false), &Ok[0]);
  R.SspIO = SuiteRunner::simulate(Enhanced, W, cfgFor(S, false), &Ok[1]);
  R.BaseOOO = SuiteRunner::simulate(Orig, W, cfgFor(S, true), &Ok[2]);
  R.SspOOO = SuiteRunner::simulate(Enhanced, W, cfgFor(S, true), &Ok[3]);
  R.ChecksumsOk = Ok[0] && Ok[1] && Ok[2] && Ok[3];
  return R;
}

void expectSameResult(const BenchResult &Want, const BenchResult &Got) {
  EXPECT_EQ(Want.Name, Got.Name);
  sim::expectStatsEqual(Want.BaseIO, Got.BaseIO, "BaseIO");
  sim::expectStatsEqual(Want.SspIO, Got.SspIO, "SspIO");
  sim::expectStatsEqual(Want.BaseOOO, Got.BaseOOO, "BaseOOO");
  sim::expectStatsEqual(Want.SspOOO, Got.SspOOO, "SspOOO");
  EXPECT_EQ(core::renderReportText(0, Want.Report),
            core::renderReportText(0, Got.Report));
  const codegen::RewriteInfo &A = Want.Report.Rewrite, &B = Got.Report.Rewrite;
  EXPECT_EQ(A.TriggersInserted, B.TriggersInserted);
  EXPECT_EQ(A.StubBlocks, B.StubBlocks);
  EXPECT_EQ(A.SliceBlocks, B.SliceBlocks);
  EXPECT_EQ(A.SliceInsts, B.SliceInsts);
  EXPECT_EQ(Want.ChecksumsOk, Got.ChecksumsOk);
}

workloads::Workload fullSuiteWorkload(const std::string &Name) {
  for (workloads::Workload &W : workloads::fullSuite())
    if (W.Name == Name)
      return W;
  ADD_FAILURE() << "no fullSuite() workload " << Name;
  return workloads::makeEm3d();
}

std::vector<std::string> fullSuiteNames() {
  std::vector<std::string> Names;
  for (const workloads::Workload &W : workloads::fullSuite())
    Names.push_back(W.Name);
  return Names;
}

/// gtest parameter names cannot contain '.' (treeadd.df).
std::string identifier(std::string N) {
  for (char &Ch : N)
    if (Ch == '.')
      Ch = '_';
  return N;
}

using Case = std::tuple<Setting, std::string>;

class SuiteRunnerDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(SuiteRunnerDifferential, MatchesTheReplacedPipeline) {
  const auto &[S, Name] = GetParam();
  const workloads::Workload W = fullSuiteWorkload(Name);
  const BenchResult Ref = referenceResult(W, S);
  EXPECT_TRUE(Ref.ChecksumsOk);
  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    support::ThreadPool Pool(Jobs);
    SuiteRunner Runner;
    applySetting(S, Runner);
    expectSameResult(Ref, Runner.run(W, &Pool));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullSuite, SuiteRunnerDifferential,
    ::testing::Combine(::testing::ValuesIn(AllSettings),
                       ::testing::ValuesIn(fullSuiteNames())),
    [](const ::testing::TestParamInfo<Case> &I) {
      return std::string(settingName(std::get<0>(I.param))) + "_" +
             identifier(std::get<1>(I.param));
    });

/// The out-parameter of core::profileProgram is the unsampled in-order run
/// a caller would otherwise simulate itself.
class ProfileBaseline : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileBaseline, IsAFreshInOrderRun) {
  const workloads::Workload W = fullSuiteWorkload(GetParam());
  const ir::Program P = W.Build();
  sim::RunOutcome Base;
  core::profileProgram(P, W.BuildMemory, &Base);
  const sim::RunOutcome Fresh =
      sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory,
                      sim::MachineConfig::inOrder());
  sim::expectStatsEqual(Fresh.Stats, Base.Stats, W.Name);
  EXPECT_EQ(Fresh.Result, Base.Result);
  EXPECT_EQ(Fresh.Checksum, Base.Checksum);
  EXPECT_TRUE(Base.checksumOk());
}

INSTANTIATE_TEST_SUITE_P(FullSuite, ProfileBaseline,
                         ::testing::ValuesIn(fullSuiteNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return identifier(I.param);
                         });

/// \p W with a BuildMemory that counts the images built from it.
workloads::Workload counted(workloads::Workload W, std::atomic<unsigned> &N) {
  W.BuildMemory = [Build = W.BuildMemory, &N](mem::SimMemory &M) {
    ++N;
    return Build(M);
  };
  return W;
}

TEST(SuiteRunnerImages, ProfileRunIsTheBaselineOnlyUnderTheProfilingConfig) {
  for (Setting S : AllSettings) {
    SCOPED_TRACE(settingName(S));
    std::atomic<unsigned> Images{0};
    SuiteRunner Runner;
    applySetting(S, Runner);
    const workloads::Workload W = counted(workloads::makeEm3d(), Images);
    EXPECT_TRUE(Runner.run(W).ChecksumsOk);
    EXPECT_EQ(Images.load(), S == Setting::Default ? 5u : 6u);
    // Everything is cached now: the benches' accessors build nothing.
    Runner.run(W);
    Runner.adaptedOf(W);
    Runner.profileOf(W);
    EXPECT_EQ(Images.load(), S == Setting::Default ? 5u : 6u);
  }
}

} // namespace
