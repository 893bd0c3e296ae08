//===- tests/parallel_test.cpp - Parallel harness determinism --------------===//
//
// The parallel experiment engine's contract: a SuiteRunner given a
// support::ThreadPool produces results bit-identical to the serial path for
// every thread count.
// Each simulation job owns its SimMemory / CacheHierarchy / BranchPredictor,
// so no schedule can perturb a single counter; these tests pin that down by
// comparing every SimStats field across --jobs 1, 2 and 8 on two workloads
// and both machine models.
//
//===----------------------------------------------------------------------===//

#include "SimStatsEq.h"

#include "harness/Experiment.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::harness;

namespace {

void expectResultsEqual(const BenchResult &A, const BenchResult &B) {
  sim::expectStatsEqual(A.BaseIO, B.BaseIO, "BaseIO");
  sim::expectStatsEqual(A.SspIO, B.SspIO, "SspIO");
  sim::expectStatsEqual(A.BaseOOO, B.BaseOOO, "BaseOOO");
  sim::expectStatsEqual(A.SspOOO, B.SspOOO, "SspOOO");
  EXPECT_EQ(A.ChecksumsOk, B.ChecksumsOk);
}

class ParallelDeterminism
    : public ::testing::TestWithParam<unsigned /*Jobs*/> {};

TEST_P(ParallelDeterminism, MatchesSerialRunner) {
  SuiteRunner Serial, Parallel;
  support::ThreadPool Pool(GetParam());
  for (const workloads::Workload &W :
       {workloads::makeEm3d(), workloads::makeMst()}) {
    SCOPED_TRACE(W.Name);
    expectResultsEqual(Serial.run(W), Parallel.run(W, &Pool));
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ParallelDeterminism,
                         ::testing::Values(1u, 2u, 8u));

TEST(SuiteRunnerPool, RunAllWarmsIdenticalResults) {
  SuiteRunner Serial, Parallel;
  support::ThreadPool Pool(4);
  std::vector<workloads::Workload> Ws = {workloads::makeEm3d(),
                                         workloads::makeMst()};
  Parallel.runAll(Ws, Pool);
  // run() after runAll must hit the cache (same reference twice) and the
  // warmed results must equal the serial ones.
  for (const workloads::Workload &W : Ws) {
    SCOPED_TRACE(W.Name);
    const BenchResult &R1 = Parallel.run(W);
    const BenchResult &R2 = Parallel.run(W);
    EXPECT_EQ(&R1, &R2);
    expectResultsEqual(Serial.run(W), R1);
  }
}

TEST(SuiteRunnerPool, JobsOneIsInline) {
  SuiteRunner Runner;
  support::ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  const BenchResult &R = Runner.run(workloads::makeEm3d(), &Pool);
  EXPECT_TRUE(R.ChecksumsOk);
  EXPECT_GT(R.BaseIO.Cycles, 0u);
}

} // namespace
