//===- tests/profile_test.cpp - Unit tests for profiling feedback ---------===//

#include "analysis/DependenceGraph.h"
#include "profile/Profile.h"
#include "sim/Run.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <set>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::profile;

namespace {

struct Profiled {
  Program P;
  ProfileData PD;
};

Profiled profileWorkload(const workloads::Workload &W) {
  Profiled R{W.Build(), {}};
  LinkedProgram LP = LinkedProgram::link(R.P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  R.PD = collectControlFlowProfile(LP, Mem);
  return R;
}

} // namespace

TEST(Profile, BlockCountsMatchArcKernel) {
  unsigned Arcs = 200;
  Profiled R = profileWorkload(workloads::makeArcKernel(Arcs, 1 << 12));
  // Entry once, loop once per arc, exit once.
  EXPECT_EQ(R.PD.blockCount(0, 0), 1u);
  EXPECT_EQ(R.PD.blockCount(0, 1), Arcs);
  EXPECT_EQ(R.PD.blockCount(0, 2), 1u);
}

TEST(Profile, EdgeCountsIncludeSelfLoop) {
  unsigned Arcs = 200;
  Profiled R = profileWorkload(workloads::makeArcKernel(Arcs, 1 << 12));
  // The back edge (loop -> loop) executes Arcs-1 times.
  EXPECT_EQ(R.PD.edgeCount(0, 1, 1), Arcs - 1);
  EXPECT_EQ(R.PD.edgeCount(0, 0, 1), 1u);
}

TEST(Profile, TripCountEstimate) {
  unsigned Arcs = 200;
  Profiled R = profileWorkload(workloads::makeArcKernel(Arcs, 1 << 12));
  analysis::FunctionDeps FD(R.P, 0);
  ASSERT_EQ(FD.loops().numLoops(), 1u);
  double Trips = R.PD.tripCountOf(0, FD.loops().loop(0));
  EXPECT_NEAR(Trips, Arcs, 1.0);
}

TEST(Profile, IndirectCallTargetsCaptured) {
  // vpr dispatches through calli to two cost models.
  Profiled R = profileWorkload(workloads::makeVpr());
  ASSERT_FALSE(R.PD.IndirectTargets.empty());
  uint64_t TotalIndirect = 0;
  std::set<uint32_t> Callees;
  for (const analysis::IndirectCallTarget &T : R.PD.IndirectTargets) {
    TotalIndirect += T.Count;
    Callees.insert(T.Callee);
  }
  EXPECT_EQ(Callees.size(), 2u) << "both cost models must be observed";
  EXPECT_GT(TotalIndirect, 100u);
}

TEST(Profile, DirectCallSiteCounts) {
  Profiled R = profileWorkload(workloads::makeMst());
  // main calls hash_lookup once per lookup.
  uint64_t Calls = 0;
  for (const analysis::DirectCallCount &C : R.PD.CallSiteCounts)
    Calls += C.Count;
  EXPECT_EQ(Calls, 3000u);
}

TEST(Profile, DelinquentSelectionCoversMissCycles) {
  workloads::Workload W = workloads::makeArcKernel(400, 1 << 14);
  Program P = W.Build();
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  ProfileData PD = collectControlFlowProfile(LP, Mem);
  // Timing pass for the cache profile.
  addCacheProfile(PD, sim::runProgram(LP, W.BuildMemory,
                                      sim::MachineConfig::inOrder())
                          .Stats);

  std::vector<DelinquentLoad> Selected =
      selectDelinquentLoads(P, PD, 0.90, 10);
  ASSERT_FALSE(Selected.empty());
  uint64_t Total = 0, Covered = 0;
  for (const auto &[Sid, St] : PD.Loads)
    Total += St.MissCycles;
  for (const DelinquentLoad &D : Selected)
    Covered += D.MissCycles;
  EXPECT_GE(static_cast<double>(Covered), 0.90 * 0.999 *
                                              static_cast<double>(Total));
  // Sorted by miss cycles, descending.
  for (size_t I = 1; I < Selected.size(); ++I)
    EXPECT_GE(Selected[I - 1].MissCycles, Selected[I].MissCycles);
}

TEST(Profile, MaxLoadsCapRespected) {
  workloads::Workload W = workloads::makeEm3d();
  Program P = W.Build();
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  ProfileData PD = collectControlFlowProfile(LP, Mem);
  addCacheProfile(PD, sim::runProgram(LP, W.BuildMemory,
                                      sim::MachineConfig::inOrder())
                          .Stats);
  EXPECT_LE(selectDelinquentLoads(P, PD, 0.99, 2).size(), 2u);
}

TEST(Profile, StaticIdIndexRoundTrips) {
  Program P = workloads::makeMcf().Build();
  StaticIdIndex Index(P);
  size_t Found = 0;
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    const Function &F = P.func(FI);
    for (uint32_t BI = 0; BI < F.numBlocks(); ++BI)
      for (uint32_t II = 0; II < F.block(BI).Insts.size(); ++II) {
        StaticId Sid = makeStaticId(FI, F.block(BI).Insts[II].Id);
        const analysis::InstRef *Ref = Index.find(Sid);
        ASSERT_NE(Ref, nullptr);
        EXPECT_EQ(*Ref, (analysis::InstRef{FI, BI, II}));
        ++Found;
      }
    // Ids no instruction of the function carries.
    EXPECT_EQ(Index.find(makeStaticId(FI, F.numInstIds())), nullptr);
    EXPECT_EQ(Index.find(makeStaticId(FI, ~0u)), nullptr);
  }
  EXPECT_EQ(Index.find(makeStaticId(uint32_t(P.numFuncs()), 0)), nullptr);
  EXPECT_EQ(Index.find(makeStaticId(~0u, ~0u)), nullptr);
  EXPECT_EQ(Found, P.numInsts());
}

TEST(Profile, BaselineCyclesRecorded) {
  workloads::Workload W = workloads::makeArcKernel(100, 1 << 12);
  Program P = W.Build();
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  ProfileData PD = collectControlFlowProfile(LP, Mem);
  addCacheProfile(PD, sim::runProgram(LP, W.BuildMemory,
                                      sim::MachineConfig::inOrder())
                          .Stats);
  EXPECT_GT(PD.BaselineCycles, 0u);
  EXPECT_FALSE(PD.Loads.empty());
}
