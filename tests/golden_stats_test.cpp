//===- tests/golden_stats_test.cpp - SimStats against a committed table ---===//
//
// The simulator's output, pinned field for field. Every other
// differential test compares two modes of one build (skip vs --no-skip,
// serial vs parallel, sampled vs exact), so none of them notices a change
// that moves every mode alike. This one compares each run against
// tests/golden/simstats.txt, which holds one row per simulation:
//
//  * every fullSuite() workload x {base, ssp} binary x {in-order, ooo}
//    pipeline x {throttle-off, throttle-on};
//  * the three pinned sampling plans of tests/sample_test.cpp (em3d
//    enhanced, mcf and stress128 baseline) on both pipelines.
//
// A row lists every SimStats field (tests/SimStatsEq.h), including the
// skip diagnostics, LoadProfile and Attribution. A change to the
// simulator that is meant to be host-time only must leave the table
// untouched; a change that moves a row states why and replaces the row
// with the one the failing test prints.
//
// RunProgramDifferential pins sim::runProgram, which every harness row
// above runs through, against a copy of the hand-written loop it
// replaced: same SimStats, same stored word, and the checksum rule.
//
//===----------------------------------------------------------------------===//

#include "ProfiledFixture.h"
#include "SimStatsEq.h"

#include "harness/Experiment.h"
#include "ir/Parser.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace ssp;

namespace {

/// Row key -> rendered fields, read once per process.
const std::map<std::string, std::string> &goldenRows() {
  static const std::map<std::string, std::string> Rows = [] {
    std::map<std::string, std::string> M;
    std::ifstream In(SSP_SOURCE_DIR "/tests/golden/simstats.txt");
    EXPECT_TRUE(In.good()) << "tests/golden/simstats.txt not found";
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      size_t Sp = Line.find(' ');
      M[Line.substr(0, Sp)] =
          Sp == std::string::npos ? "" : Line.substr(Sp + 1);
    }
    return M;
  }();
  return Rows;
}

/// Simulates \p P and appends its row (`key fields`) to \p Actual,
/// checking it against the golden row of the same key.
void checkRow(const std::string &Key, const ir::Program &P,
              const workloads::Workload &W, const sim::MachineConfig &Cfg,
              std::string &Actual) {
  SCOPED_TRACE(Key);
  bool ChecksumOk = false;
  sim::SimStats S = harness::SuiteRunner::simulate(P, W, Cfg, &ChecksumOk);
  EXPECT_TRUE(ChecksumOk);
  std::vector<sim::StatsField> Fields = sim::statsFields(S);
  Actual += Key + " " + sim::renderFields(Fields) + "\n";
  auto It = goldenRows().find(Key);
  if (It == goldenRows().end()) {
    ADD_FAILURE() << "no golden row";
    return;
  }
  sim::expectFieldsEqual(Fields, sim::parseFields(It->second));
}

bool isStreamWorkload(const workloads::Workload &W) {
  for (const workloads::Workload &S : workloads::streamSuite())
    if (S.Name == W.Name)
      return true;
  return false;
}

/// \p W's SSP binary as the pipeline builds it: the stream workloads are
/// adapted with descriptors enabled.
ir::Program enhance(const workloads::ProfiledWorkload &PW) {
  core::ToolOptions Opts;
  Opts.EnableStreams = isStreamWorkload(PW.W);
  return core::PostPassTool(PW.P, PW.PD, Opts).adapt();
}

sim::MachineConfig cfgFor(bool OOO) {
  return OOO ? sim::MachineConfig::outOfOrder()
             : sim::MachineConfig::inOrder();
}

const char *pipeName(bool OOO) { return OOO ? "ooo" : "in-order"; }

void printOnFailure(const std::string &Actual) {
  if (::testing::Test::HasFailure())
    std::printf("actual rows:\n%s", Actual.c_str());
}

std::vector<std::string> fullSuiteNames() {
  std::vector<std::string> Names;
  for (const workloads::Workload &W : workloads::fullSuite())
    Names.push_back(W.Name);
  return Names;
}

/// gtest parameter names cannot contain '.' (treeadd.df).
std::string paramName(const ::testing::TestParamInfo<std::string> &I) {
  std::string N = I.param;
  for (char &Ch : N)
    if (Ch == '.')
      Ch = '_';
  return N;
}

workloads::Workload fullSuiteWorkload(const std::string &Name) {
  for (workloads::Workload &W : workloads::fullSuite())
    if (W.Name == Name)
      return W;
  ADD_FAILURE() << "no fullSuite() workload " << Name;
  return workloads::makeEm3d();
}

class GoldenStats : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenStats, FullSuiteMatchesTable) {
  const workloads::ProfiledWorkload &PW =
      workloads::profiledWorkload(fullSuiteWorkload(GetParam()));
  const ir::Program Ssp = enhance(PW);
  std::string Actual;
  for (bool Enhanced : {false, true})
    for (bool OOO : {false, true})
      for (bool Throttle : {false, true}) {
        sim::MachineConfig Cfg = cfgFor(OOO);
        Cfg.EnableSSPThrottle = Throttle;
        checkRow(PW.W.Name + "/" + (Enhanced ? "ssp" : "base") + "/" +
                     pipeName(OOO) + "/" +
                     (Throttle ? "throttle-on" : "throttle-off"),
                 Enhanced ? Ssp : PW.P, PW.W, Cfg, Actual);
      }
  printOnFailure(Actual);
}

INSTANTIATE_TEST_SUITE_P(FullSuite, GoldenStats,
                         ::testing::ValuesIn(fullSuiteNames()), paramName);

// The sampled path (detailed intervals, drain, speculative-context
// release, functional fast-forward and warming) under the plans
// tests/sample_test.cpp bounds.
TEST(GoldenStats, SampledPlansMatchTable) {
  struct PlanCase {
    workloads::Workload W;
    bool Enhanced;
    const char *Plan;
  };
  const PlanCase Cases[] = {
      {workloads::makeEm3d(), true, "4000:2000:6000:4000"},
      {workloads::makeMcf(), false, "12000:2000:7000:2000"},
      {workloads::makeStress(128, 32, 8), false, "20000:2000:78000:2000"},
  };
  std::string Actual;
  for (const PlanCase &C : Cases) {
    const workloads::ProfiledWorkload &PW = workloads::profiledWorkload(C.W);
    ir::Program Enh;
    if (C.Enhanced)
      Enh = enhance(PW);
    const ir::Program &P = C.Enhanced ? Enh : PW.P;
    for (bool OOO : {false, true}) {
      sim::MachineConfig Cfg = cfgFor(OOO);
      ASSERT_TRUE(sim::parseSamplingPlan(C.Plan, Cfg.Sample)) << C.Plan;
      checkRow(PW.W.Name + "/" + (C.Enhanced ? "ssp" : "base") + "/" +
                   pipeName(OOO) + "/sample-" + C.Plan,
               P, PW.W, Cfg, Actual);
    }
  }
  printOnFailure(Actual);
}

//===----------------------------------------------------------------------===//
// sim::runProgram against the loop it replaced
//===----------------------------------------------------------------------===//

struct ReferenceOutcome {
  sim::SimStats Stats;
  std::optional<uint64_t> Result;
};

/// The hand-written loop every caller carried before sim::runProgram:
/// link, build the image, construct a Simulator, run, read the result.
ReferenceOutcome
referenceRun(const ir::Program &P,
             const std::function<void(mem::SimMemory &)> &BuildMemory,
             const sim::MachineConfig &Cfg) {
  ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  mem::SimMemory Mem;
  BuildMemory(Mem);
  sim::Simulator Sim(Cfg, LP, Mem);
  ReferenceOutcome R;
  R.Stats = Sim.run();
  if (Mem.isMapped(mem::ResultAddr))
    R.Result = Mem.read(mem::ResultAddr);
  return R;
}

/// The four configurations each binary runs under: both pipelines,
/// exact and under one pinned sampling plan.
std::vector<std::pair<std::string, sim::MachineConfig>> differentialCfgs() {
  std::vector<std::pair<std::string, sim::MachineConfig>> Cfgs;
  for (bool OOO : {false, true})
    for (bool Sampled : {false, true}) {
      sim::MachineConfig Cfg = cfgFor(OOO);
      if (Sampled) {
        EXPECT_TRUE(sim::parseSamplingPlan("4000:2000:6000:4000", Cfg.Sample));
      }
      Cfgs.emplace_back(std::string(pipeName(OOO)) +
                            (Sampled ? "/sampled" : "/exact"),
                        Cfg);
    }
  return Cfgs;
}

class RunProgramDifferential : public ::testing::TestWithParam<std::string> {
};

TEST_P(RunProgramDifferential, MatchesTheReplacedLoop) {
  const workloads::ProfiledWorkload &PW =
      workloads::profiledWorkload(fullSuiteWorkload(GetParam()));
  const ir::Program Ssp = enhance(PW);
  for (bool Enhanced : {false, true}) {
    const ir::Program &P = Enhanced ? Ssp : PW.P;
    const ir::LinkedProgram LP = ir::LinkedProgram::link(P);
    for (const auto &[Name, Cfg] : differentialCfgs()) {
      std::string What = PW.W.Name + (Enhanced ? "/ssp/" : "/base/") + Name;
      SCOPED_TRACE(What);
      uint64_t Expected = 0;
      ReferenceOutcome Ref = referenceRun(
          P, [&](mem::SimMemory &M) { Expected = PW.W.BuildMemory(M); },
          Cfg);
      sim::RunOutcome Out = sim::runProgram(LP, PW.W.BuildMemory, Cfg);
      sim::expectStatsEqual(Ref.Stats, Out.Stats, What);
      ASSERT_TRUE(Ref.Result.has_value());
      EXPECT_EQ(Out.Result, Ref.Result);
      EXPECT_EQ(*Ref.Result, Expected);
      EXPECT_EQ(Out.Checksum, sim::ChecksumStatus::Ok);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FullSuite, RunProgramDifferential,
                         ::testing::ValuesIn(fullSuiteNames()), paramName);

// A parsed `.ssp` data image carries no checksum: the outcome reports the
// stored word and leaves the checksum unchecked.
TEST(RunProgramDifferential, ListsumDataImageIsUnchecked) {
  std::ifstream In(SSP_SOURCE_DIR "/examples/listsum.ssp");
  std::stringstream Buf;
  Buf << In.rdbuf();
  ir::Program P;
  ir::DataImage Data;
  std::string Err;
  ASSERT_TRUE(ir::parseProgram(Buf.str(), P, Err, &Data)) << Err;
  const ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  for (const auto &[Name, Cfg] : differentialCfgs()) {
    SCOPED_TRACE(Name);
    ReferenceOutcome Ref = referenceRun(
        P,
        [&Data](mem::SimMemory &M) {
          for (const auto &[Addr, Value] : Data)
            M.write(Addr, Value);
        },
        Cfg);
    sim::RunOutcome Out = sim::runProgram(LP, sim::imageOf(Data), Cfg);
    sim::expectStatsEqual(Ref.Stats, Out.Stats, Name);
    ASSERT_TRUE(Ref.Result.has_value());
    EXPECT_EQ(Out.Result, Ref.Result);
    EXPECT_EQ(Out.Checksum, sim::ChecksumStatus::Unchecked);
  }
}

TEST(RunProgramDifferential, WrongChecksumIsReported) {
  workloads::Workload W = workloads::makeArcKernel(100, 1 << 12);
  const ir::Program P = W.Build();
  const ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  uint64_t Expected = 0;
  sim::RunOutcome Out = sim::runProgram(
      LP,
      [&](mem::SimMemory &M) { return (Expected = W.BuildMemory(M)) + 1; },
      sim::MachineConfig::inOrder());
  EXPECT_EQ(Out.Checksum, sim::ChecksumStatus::Wrong);
  EXPECT_FALSE(Out.checksumOk());
  EXPECT_EQ(Out.Result, std::optional<uint64_t>(Expected));
}

// A result page nothing ever wrote is a wrong checksum, not an assert.
TEST(RunProgramDifferential, UnmappedResultIsWrongNotAnAssert) {
  ir::Program P;
  std::string Err;
  ASSERT_TRUE(ir::parseProgram("function main (fn0) [entry]:\n"
                               "  bb0 <entry>:\n"
                               "    movi r1 = 4096\n"
                               "    halt\n",
                               P, Err))
      << Err;
  const ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  sim::RunOutcome Checked = sim::runProgram(
      LP, [](mem::SimMemory &) { return std::optional<uint64_t>(7); },
      sim::MachineConfig::inOrder());
  EXPECT_FALSE(Checked.Result.has_value());
  EXPECT_EQ(Checked.Checksum, sim::ChecksumStatus::Wrong);
  sim::RunOutcome Unchecked = sim::runProgram(
      LP, [](mem::SimMemory &) { return std::optional<uint64_t>(); },
      sim::MachineConfig::inOrder());
  EXPECT_FALSE(Unchecked.Result.has_value());
  EXPECT_EQ(Unchecked.Checksum, sim::ChecksumStatus::Unchecked);
}

} // namespace
