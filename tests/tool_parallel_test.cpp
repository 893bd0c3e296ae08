//===- tests/tool_parallel_test.cpp - parallel adaptation determinism -----===//
//
// Pins the tool's determinism contract: PostPassTool::adapt with
// ToolOptions::Jobs = 1, 4, and 8 must produce a byte-identical adaptation
// — the same report, the same emitted binary text — on all seven paper
// workloads plus a stress program, and every adapted binary must clear the
// verification pipeline with zero errors. Jobs = 1 is the inline serial
// path, so these tests also pin the parallel path against it. A shared
// AnalysisCache must give the same bytes whether its scheduler's
// region-height memo starts cold or warm.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisCache.h"
#include "core/PostPassTool.h"
#include "workloads/Workload.h"

#include "ProfiledFixture.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ssp;
using namespace ssp::workloads;
using namespace ssp::core;

namespace {

/// Every field of the report a job-count change could plausibly disturb,
/// rendered to text so mismatches show up as a readable diff.
std::string renderReport(const AdaptationReport &Rep) {
  std::ostringstream OS;
  OS << "delinquent=" << Rep.DelinquentLoads
     << " triggers=" << Rep.Rewrite.TriggersInserted
     << " stubs=" << Rep.Rewrite.StubBlocks
     << " sliceblocks=" << Rep.Rewrite.SliceBlocks
     << " sliceinsts=" << Rep.Rewrite.SliceInsts
     << " verify=" << Rep.VerifyErrors << "/" << Rep.VerifyWarnings << "\n";
  for (const SliceReport &S : Rep.Slices)
    OS << S.FunctionName << " @ " << S.Load.str() << ": size=" << S.Size
       << " livein=" << S.LiveIns << " interproc=" << S.Interprocedural
       << " model=" << sched::modelName(S.Model)
       << " pred=" << S.PredictedCondition << " depth=" << S.RegionDepth
       << " slack=" << S.SlackPerIteration << " ilp=" << S.AvailableILP
       << " trigcost=" << S.HeuristicTriggerCost << "/"
       << S.MinCutTriggerCost << " targets=" << S.Targets << "\n";
  return OS.str();
}

struct AdaptResult {
  std::string ReportText;
  std::string ProgramText;
  unsigned VerifyErrors = 0;
};

ToolOptions optionsWithJobs(unsigned Jobs) {
  ToolOptions Opts;
  Opts.Jobs = Jobs;
  Opts.FatalOnVerifyError = false; // Report errors through the test instead.
  return Opts;
}

/// Adapts \p PW through \p AC, or through a fresh cache when null.
AdaptResult adaptWithJobs(const ProfiledWorkload &PW, unsigned Jobs,
                          const AnalysisCache *AC = nullptr) {
  PostPassTool Tool(PW.P, PW.PD, optionsWithJobs(Jobs));
  AdaptationReport Rep;
  ir::Program Enhanced = Tool.adaptWith(AC, &Rep);
  return {renderReport(Rep), Enhanced.str(), Rep.VerifyErrors};
}

void expectIdenticalAcrossJobs(const Workload &W) {
  const ProfiledWorkload &PW = profiledWorkload(W);
  AdaptResult Serial = adaptWithJobs(PW, 1);
  EXPECT_EQ(Serial.VerifyErrors, 0u)
      << W.Name << ": serial adaptation failed verification";
  for (unsigned Jobs : {4u, 8u}) {
    AdaptResult Par = adaptWithJobs(PW, Jobs);
    EXPECT_EQ(Serial.ReportText, Par.ReportText)
        << W.Name << ": report differs at jobs=" << Jobs;
    EXPECT_EQ(Serial.ProgramText, Par.ProgramText)
        << W.Name << ": emitted binary differs at jobs=" << Jobs;
    EXPECT_EQ(Par.VerifyErrors, 0u)
        << W.Name << ": verification failed at jobs=" << Jobs;
  }
}

} // namespace

TEST(ToolParallelDeterminism, PaperSuiteBitIdenticalAcrossJobCounts) {
  for (const Workload &W : paperSuite())
    expectIdenticalAcrossJobs(W);
}

TEST(ToolParallelDeterminism, StressProgramBitIdenticalAcrossJobCounts) {
  expectIdenticalAcrossJobs(makeStress(16, 6, 2));
}

TEST(ToolParallelDeterminism, JobsZeroPicksHardwareConcurrency) {
  // Jobs = 0 must behave like any other job count: same bytes out.
  const ProfiledWorkload &PW = profiledWorkload(makeMcf());
  AdaptResult Serial = adaptWithJobs(PW, 1);
  AdaptResult Auto = adaptWithJobs(PW, 0);
  EXPECT_EQ(Serial.ReportText, Auto.ReportText);
  EXPECT_EQ(Serial.ProgramText, Auto.ProgramText);
}

TEST(ToolParallelDeterminism, WarmRegionHeightMemoMatchesFreshCache) {
  // Two adaptations through one cache: the first fills the shared
  // region-height memo (racing workers at Jobs > 1), the second reads it.
  for (const Workload &W : {makeStress(16, 6, 2), makeMcf()}) {
    const ProfiledWorkload &PW = profiledWorkload(W);
    AdaptResult Fresh = adaptWithJobs(PW, 1);
    for (unsigned Jobs : {1u, 4u, 8u}) {
      ToolOptions Opts = optionsWithJobs(Jobs);
      AnalysisCache AC(PW.P, PW.PD, Opts.Slicing,
                       PostPassTool::scheduleOptionsOf(Opts),
                       PostPassTool::specDepOptionsOf(Opts));
      for (const char *Memo : {"cold", "warm"}) {
        AdaptResult R = adaptWithJobs(PW, Jobs, &AC);
        EXPECT_EQ(Fresh.ReportText, R.ReportText)
            << W.Name << ": report differs, " << Memo << " memo, jobs="
            << Jobs;
        EXPECT_EQ(Fresh.ProgramText, R.ProgramText)
            << W.Name << ": emitted binary differs, " << Memo
            << " memo, jobs=" << Jobs;
      }
    }
  }
}
