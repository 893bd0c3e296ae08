//===- tests/smt_test.cpp - SMT machine-level behaviour tests -------------===//
//
// Tests of the multithreaded machine behaviour the SSP paradigm depends
// on: fetch-policy variants, context exhaustion, fill-buffer pressure,
// and SSP event accounting.
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "sim/Run.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::workloads;

namespace {

struct AdaptedArc {
  Workload W = makeArcKernel();
  ir::Program Orig;
  ir::Program Enhanced;

  AdaptedArc() : Orig(W.Build()) {
    profile::ProfileData PD = core::profileProgram(Orig, W.BuildMemory);
    core::PostPassTool Tool(Orig, PD);
    Enhanced = Tool.adapt();
  }

  sim::SimStats run(const ir::Program &P, sim::MachineConfig Cfg) {
    sim::RunOutcome Out =
        sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory, Cfg);
    EXPECT_TRUE(Out.checksumOk());
    return Out.Stats;
  }
};

AdaptedArc &shared() {
  static AdaptedArc A;
  return A;
}

} // namespace

TEST(SMT, ICountPolicyPreservesResultsAndHelps) {
  sim::MachineConfig RR = sim::MachineConfig::inOrder();
  sim::MachineConfig IC = sim::MachineConfig::inOrder();
  IC.Fetch = sim::FetchPolicy::ICount;
  sim::SimStats A = shared().run(shared().Enhanced, RR);
  sim::SimStats B = shared().run(shared().Enhanced, IC);
  // Same architectural result (asserted in run()); both still beat the
  // baseline.
  uint64_t Base = shared().run(shared().Orig, RR).Cycles;
  EXPECT_LT(A.Cycles, Base);
  EXPECT_LT(B.Cycles, Base);
}

TEST(SMT, ICountIsDeterministic) {
  sim::MachineConfig IC = sim::MachineConfig::inOrder();
  IC.Fetch = sim::FetchPolicy::ICount;
  sim::SimStats A = shared().run(shared().Enhanced, IC);
  sim::SimStats B = shared().run(shared().Enhanced, IC);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

TEST(SMT, TwoContextsLimitChaining) {
  // With 2 contexts only one speculative thread lives at a time: far
  // fewer overlapped prefetches than with 4 contexts.
  sim::MachineConfig Two = sim::MachineConfig::inOrder();
  Two.NumThreads = 2;
  sim::MachineConfig Four = sim::MachineConfig::inOrder();
  sim::SimStats S2 = shared().run(shared().Enhanced, Two);
  sim::SimStats S4 = shared().run(shared().Enhanced, Four);
  EXPECT_GT(S2.SpawnsDropped + S2.TriggersIgnored, 0u);
  EXPECT_LT(S4.Cycles, S2.Cycles)
      << "more contexts must help the chaining workload";
}

TEST(SMT, SpawnsDroppedWhenContextsExhausted) {
  sim::SimStats S =
      shared().run(shared().Enhanced, sim::MachineConfig::inOrder());
  // The induction chain spawns faster than threads die: drops happen and
  // are counted rather than queued.
  EXPECT_GT(S.SpawnsDropped, 0u);
  EXPECT_GT(S.TriggersIgnored, 0u)
      << "chk.c must act as a nop while contexts are busy";
}

TEST(SMT, FillBufferPressureIsAccounted) {
  // Shrinking the fill buffer to 2 entries forces allocation stalls on a
  // miss-heavy run; the hierarchy must account them.
  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  Cfg.Cache.FillBufferEntries = 2;
  sim::SimStats S = shared().run(shared().Enhanced, Cfg);
  EXPECT_GT(S.CacheTotals.FillBufferStallCycles, 0u);
  // And the tiny fill buffer costs cycles vs. the 16-entry default.
  sim::SimStats Full =
      shared().run(shared().Enhanced, sim::MachineConfig::inOrder());
  EXPECT_GT(S.Cycles, Full.Cycles);
}

TEST(SMT, SpeculativeThreadsShareTheCacheHierarchy) {
  // The mechanism SSP relies on: speculative-thread misses install lines
  // the main thread then hits. Partial hits on the main thread's
  // delinquent load are direct evidence.
  sim::SimStats S =
      shared().run(shared().Enhanced, sim::MachineConfig::inOrder());
  uint64_t Partials = 0;
  for (const auto &[Sid, St] : S.LoadProfile)
    for (int L = 1; L < 4; ++L)
      Partials += St.Partials[L];
  uint64_t L1Hits = 0;
  for (const auto &[Sid, St] : S.LoadProfile)
    L1Hits += St.Hits[0];
  EXPECT_GT(Partials + L1Hits, 0u);
}

TEST(SMT, BaselineUnaffectedByThreadCount) {
  // A single-threaded binary must run identically on 2 or 8 contexts.
  sim::MachineConfig Two = sim::MachineConfig::inOrder();
  Two.NumThreads = 2;
  sim::MachineConfig Eight = sim::MachineConfig::inOrder();
  Eight.NumThreads = 8;
  EXPECT_EQ(shared().run(shared().Orig, Two).Cycles,
            shared().run(shared().Orig, Eight).Cycles);
}

TEST(SMT, MainInstsUnchangedByContextCount) {
  sim::MachineConfig Two = sim::MachineConfig::inOrder();
  Two.NumThreads = 2;
  sim::SimStats A = shared().run(shared().Enhanced, Two);
  sim::SimStats B =
      shared().run(shared().Enhanced, sim::MachineConfig::inOrder());
  // Architectural main-thread work may differ only through chk.c firing
  // counts (stub executions); bound the difference.
  double Ratio = static_cast<double>(A.MainInsts) /
                 static_cast<double>(B.MainInsts);
  EXPECT_GT(Ratio, 0.7);
  EXPECT_LT(Ratio, 1.4);
}
