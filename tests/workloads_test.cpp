//===- tests/workloads_test.cpp - Benchmark workload validation -----------===//
//
// Every workload must be well-formed IR, run to completion functionally,
// and store exactly the analytically computed checksum — this pins the
// architectural semantics that SSP adaptation must preserve.
//
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"
#include "workloads/Workload.h"

#include "StructuralCheck.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::workloads;

namespace {

class WorkloadTest : public ::testing::TestWithParam<const char *> {
protected:
  Workload getWorkload() const {
    std::string Name = GetParam();
    if (Name == "em3d")
      return makeEm3d();
    if (Name == "health")
      return makeHealth();
    if (Name == "mst")
      return makeMst();
    if (Name == "treeadd.df")
      return makeTreeaddDF();
    if (Name == "treeadd.bf")
      return makeTreeaddBF();
    if (Name == "mcf")
      return makeMcf();
    if (Name == "vpr")
      return makeVpr();
    if (Name == "mcf.hand")
      return makeMcfHandAdapted();
    if (Name == "health.hand")
      return makeHealthHandAdapted();
    if (Name == "arc-kernel")
      return makeArcKernel(200, 1 << 12);
    ADD_FAILURE() << "unknown workload " << Name;
    return makeArcKernel(8, 64);
  }
};

} // namespace

TEST_P(WorkloadTest, WellFormedIR) {
  Workload W = getWorkload();
  ir::Program P = W.Build();
  EXPECT_TRUE(tests::wellFormed(P)) << W.Name;
}

TEST_P(WorkloadTest, FunctionalChecksumMatches) {
  Workload W = getWorkload();
  ir::Program P = W.Build();
  ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  mem::SimMemory Mem;
  uint64_t Expected = W.BuildMemory(Mem);
  profile::collectControlFlowProfile(LP, Mem);
  EXPECT_EQ(Mem.read(ResultAddr), Expected) << W.Name;
}

TEST_P(WorkloadTest, ProfileSeesHotBlocks) {
  Workload W = getWorkload();
  ir::Program P = W.Build();
  ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  profile::ProfileData PD = profile::collectControlFlowProfile(LP, Mem);
  // Some block must be hot (a loop executed many times).
  uint64_t MaxCount = 0;
  for (const auto &Counts : PD.BlockCounts)
    for (uint64_t C : Counts)
      MaxCount = std::max(MaxCount, C);
  EXPECT_GT(MaxCount, 100u) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("em3d", "health", "mst",
                                           "treeadd.df", "treeadd.bf", "mcf",
                                           "vpr", "mcf.hand", "health.hand",
                                           "arc-kernel"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '.' || C == '-')
                               C = '_';
                           return Name;
                         });

TEST(WorkloadSuite, PaperSuiteHasSevenBenchmarks) {
  EXPECT_EQ(paperSuite().size(), 7u);
}
