//===- perfbench/tests/perfbench_test.cpp - The benchmark's own tests -----===//
//
// The statistics the benchmark reports and its fail accounting: a wrong
// checksum and a flipped response byte must each count as failed ops.
//
//===----------------------------------------------------------------------===//

#include "bench/Bench.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace perfbench;

namespace {

/// Runs of one input taking 1, 2, ..., N ms, in descending order.
std::vector<OpResult> oneTo(size_t N, size_t Input = 0) {
  std::vector<OpResult> V;
  for (size_t I = N; I >= 1; --I)
    V.push_back({static_cast<double>(I), "", Input});
  return V;
}

std::vector<OpResult> concat(std::vector<OpResult> A,
                             const std::vector<OpResult> &B) {
  A.insert(A.end(), B.begin(), B.end());
  return A;
}

/// Runs one pass of \p W and returns its ledger.
OpLedger runPass(Workload &W) {
  OpLedger L;
  W.restart(nullptr);
  for (size_t I = 0; I < W.passLength(); ++I)
    L.record(W.runOp(I, nullptr));
  return L;
}

ssp::workloads::Workload smallKernel() {
  return ssp::workloads::makeArcKernel(200, 1 << 12);
}

} // namespace

TEST(Stats, TailIsTheSampleWithTenBeyondIt) {
  Tail T = tailOf(oneTo(100));
  EXPECT_EQ(T.Value, 90.0);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_DOUBLE_EQ(T.Percentile, 90.0);
  EXPECT_EQ(T.N, 100u);

  T = tailOf(oneTo(1000));
  EXPECT_EQ(T.Value, 990.0);
  EXPECT_DOUBLE_EQ(T.Percentile, 99.0);
}

TEST(Stats, TailOfFewRunsIsTheMedian) {
  // Below 21 runs the ten-beyond sample would sit under the median.
  Tail T = tailOf(oneTo(20));
  EXPECT_EQ(T.Value, 10.5);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_DOUBLE_EQ(T.Percentile, 50.0);
  EXPECT_EQ(tailOf(oneTo(10)).Value, 5.5);
  // At 21 runs both rules give the same run.
  EXPECT_EQ(tailOf(oneTo(21)).Value, 11.0);
  EXPECT_EQ(tailOf({}).N, 0u);
}

TEST(Stats, TailIsTheSlowestInputsTail) {
  // A fast input with many runs and a slow one with few: the tail is the
  // slow input's median, whatever the fast input's count.
  std::vector<OpResult> Slow;
  for (double Ms : {700.0, 720.0, 690.0, 705.0, 710.0, 695.0})
    Slow.push_back({Ms, "", 1});
  for (size_t Fast : {50u, 100u, 500u}) {
    Tail T = tailOf(concat(oneTo(Fast), Slow));
    EXPECT_EQ(T.Input, 1u);
    EXPECT_EQ(T.N, 6u);
    EXPECT_EQ(T.Value, 702.5);
  }
  // One run fewer of the slow input moves the tail by that input's own
  // spread, never down to another input.
  Slow.pop_back();
  EXPECT_EQ(tailOf(concat(oneTo(100), Slow)).Value, 705.0);
}

TEST(Stats, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, MedianLatencyIsTheMedianInputsMedian) {
  std::vector<OpResult> Ops;
  // Three inputs; the middle one's runs straddle nothing else.
  for (double Ms : {1.0, 2.0, 3.0, 10.0, 11.0, 30.0, 100.0, 101.0, 102.0})
    Ops.push_back({Ms, "", Ms < 5 ? 0u : Ms < 50 ? 1u : 2u});
  EXPECT_EQ(medianLatency(Ops), 11.0);
  // One input: the plain median.
  for (OpResult &R : Ops)
    R.Input = 0;
  EXPECT_EQ(medianLatency(Ops), 11.0);
  Ops.pop_back();
  EXPECT_EQ(medianLatency(Ops), 10.5);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2, 8}), 4.0);
  EXPECT_DOUBLE_EQ(geomean({1.5}), 1.5);
  EXPECT_TRUE(std::isnan(geomean({})));
  EXPECT_TRUE(std::isnan(geomean({2, 0})));
  EXPECT_TRUE(std::isnan(geomean({2, -1})));
}

TEST(Stats, FormatDoubleRoundTrips) {
  for (double V : {0.1, 1.0 / 3.0, 123456.789, 2.5e-9})
    EXPECT_EQ(std::stod(formatDouble(V)), V);
}

TEST(Stats, PassOrderIsASeededPermutation) {
  std::vector<size_t> A = passOrder(7, 0, 10), B = passOrder(7, 0, 10);
  EXPECT_EQ(A, B);
  std::vector<size_t> Sorted = A;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 0; I < Sorted.size(); ++I)
    EXPECT_EQ(Sorted[I], I);
  EXPECT_NE(A, passOrder(8, 0, 10));
  EXPECT_NE(A, passOrder(7, 1, 10));
}

TEST(HostSpeed, FactorIsTheMedianSampleOverNominal) {
  HostSpeed H(1e9); // maybeSample() never fires.
  H.sample();
  H.sample();
  H.maybeSample();
  ASSERT_EQ(H.samples().size(), 3u);
  for (double Ms : H.samples())
    EXPECT_GT(Ms, 0.0);
  EXPECT_DOUBLE_EQ(H.factor(), median(H.samples()) / HostRefNominalMs);
}

TEST(HostSpeed, SamplesOnceTheIntervalHasPassed) {
  HostSpeed H(0.0);
  H.maybeSample();
  H.maybeSample();
  EXPECT_EQ(H.samples().size(), 3u);
}

TEST(Ledger, CountsFailures) {
  OpLedger L;
  L.record({1.0, ""});
  L.record({1.0, "bad"});
  L.record({1.0, ""});
  L.record({1.0, ""});
  EXPECT_EQ(L.attempted(), 4u);
  EXPECT_EQ(L.failed(), 1u);
  EXPECT_DOUBLE_EQ(L.failShare(), 0.25);
  ASSERT_EQ(L.reasons().size(), 1u);
  EXPECT_EQ(L.reasons()[0], "bad");
}

TEST(Ledger, CountDriftFailsTheRun) {
  std::string Path = testing::TempDir() + "perfbench_counts.txt";
  std::remove(Path.c_str());
  CountMap C = {{"sim.cycles", "1234"}, {"speedup_io_gmean", "1.5"}};
  OpLedger First, Same, Drift;
  guardCounts(C, Path, First); // Records.
  guardCounts(C, Path, Same);
  C["sim.cycles"] = "1235";
  guardCounts(C, Path, Drift);
  std::remove(Path.c_str());
  EXPECT_EQ(First.failed(), 0u);
  EXPECT_EQ(Same.failed(), 0u);
  ASSERT_EQ(Drift.failed(), 1u);
  EXPECT_NE(Drift.reasons()[0].find("sim.cycles=1235 (was 1234)"),
            std::string::npos);
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanRecorder R;
  {
    SpanScope Op(&R, "bench.op");
    {
      SpanScope Child(&R, "sim.run");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_EQ(R.spans().size(), 2u);
  EXPECT_EQ(R.spans()[1].Parent, 0);
  std::map<std::string, double> Self = R.selfMsByLayer();
  EXPECT_GE(Self["sim"], 19.0);
  EXPECT_LT(Self["bench"], 5.0);
  EXPECT_NEAR(Self["sim"] + Self["bench"], R.totalMs("bench.op"), 1e-6);
}

TEST(Spans, SetupSpansAreKeptApartFromOps) {
  SpanRecorder R;
  R.setOp(SpanRecorder::SetupOp);
  { SpanScope Setup(&R, "profile.run"); }
  R.setOp(0);
  { SpanScope Op(&R, "profile.run"); }
  EXPECT_EQ(R.selfMsByLayer().count("profile"), 1u);
  EXPECT_EQ(R.selfMsByLayer(true).count("profile"), 1u);
  EXPECT_NEAR(R.totalMs("profile.run"),
              (R.spans()[1].EndUs - R.spans()[1].StartUs) / 1000.0, 1e-9);
}

TEST(Spans, SetupOfAWorkloadIsRecorded) {
  SpanRecorder R;
  R.setOp(SpanRecorder::SetupOp);
  std::unique_ptr<Workload> W = makePipeline(1, {{smallKernel(), false}}, &R);
  std::map<std::string, double> Setup = R.selfMsByLayer(true);
  for (const char *Layer : {"workloads", "profile", "core", "ir", "sim"})
    EXPECT_GT(Setup[Layer], 0.0) << Layer;
  EXPECT_TRUE(R.selfMsByLayer().empty());
}

TEST(Pipeline, CorrectProgramPasses) {
  std::unique_ptr<Workload> W = makePipeline(1, {{smallKernel(), false}});
  OpLedger L = runPass(*W);
  EXPECT_EQ(L.attempted(), 1u);
  EXPECT_EQ(L.failShare(), 0.0);
  EXPECT_NE(W->counts().at("sim.cycles"), "0");
}

TEST(Pipeline, CorruptedChecksumRaisesFailShare) {
  ssp::workloads::Workload Broken = smallKernel();
  auto Build = Broken.BuildMemory;
  Broken.BuildMemory = [Build](ssp::mem::SimMemory &M) {
    return Build(M) + 1;
  };
  std::unique_ptr<Workload> W =
      makePipeline(1, {{smallKernel(), false}, {Broken, false}});
  OpLedger L = runPass(*W);
  EXPECT_EQ(L.attempted(), 2u);
  EXPECT_EQ(L.failed(), 1u);
  EXPECT_DOUBLE_EQ(L.failShare(), 0.5);
  ASSERT_FALSE(L.reasons().empty());
  EXPECT_NE(L.reasons()[0].find("checksum"), std::string::npos);
}

TEST(Serve, ResponsesMatchTheOneShotPath) {
  ServeSetup S;
  S.Corpus = {smallKernel()};
  std::unique_ptr<Workload> W = makeServe(3, S);
  OpLedger L = runPass(*W);
  EXPECT_EQ(L.attempted(), 100u);
  EXPECT_EQ(L.failShare(), 0.0);
}

TEST(Serve, FlippedResponseByteRaisesFailShare) {
  ServeSetup S;
  S.Corpus = {smallKernel()};
  uint64_t Seen = 0, Flipped = 0;
  S.Tamper = [&](std::string &Response) {
    // Flip one byte inside the binary payload of every tenth ok response.
    size_t Ok = Response.find(" ok\n");
    if (Seen++ % 10 == 0 && Ok != std::string::npos && Ok < 40) {
      Response[Response.size() - 20] ^= 1;
      ++Flipped;
    }
  };
  std::unique_ptr<Workload> W = makeServe(3, S);
  OpLedger L = runPass(*W);
  EXPECT_EQ(L.attempted(), 100u);
  EXPECT_GT(Flipped, 5u);
  EXPECT_EQ(L.failed(), Flipped);
  EXPECT_DOUBLE_EQ(L.failShare(), static_cast<double>(Flipped) / 100.0);
}
