//===- tests/throttle_test.cpp - Dynamic trigger throttling tests ---------===//

#include "core/PostPassTool.h"
#include "obs/TraceSink.h"
#include "sim/Run.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

using namespace ssp;
using namespace ssp::workloads;

namespace {

/// A kernel and its adapted binary.
struct AdaptedKernel {
  Workload W;
  ir::Program Orig;
  ir::Program Enhanced;

  explicit AdaptedKernel(Workload Kernel = makePhasedKernel())
      : W(std::move(Kernel)), Orig(W.Build()) {
    profile::ProfileData PD = core::profileProgram(Orig, W.BuildMemory);
    core::PostPassTool Tool(Orig, PD);
    Enhanced = Tool.adapt();
  }

  sim::SimStats run(const ir::Program &P, sim::MachineConfig Cfg,
                    uint64_t *Checksum = nullptr,
                    obs::TraceSink *Trace = nullptr) {
    sim::RunOutcome Out = sim::runProgram(ir::LinkedProgram::link(P),
                                          W.BuildMemory, Cfg, Trace);
    EXPECT_TRUE(Out.checksumOk());
    if (Checksum)
      *Checksum = Out.Result.value_or(0);
    return Out.Stats;
  }
};

} // namespace

TEST(Throttle, PhasedKernelTriggersThrottleEvents) {
  AdaptedKernel S;
  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  Cfg.EnableSSPThrottle = true;
  sim::SimStats Stats = S.run(S.Enhanced, Cfg);
  EXPECT_GT(Stats.ThrottleEvents, 0u)
      << "cache-resident passes must be detected as useless prefetching";
}

TEST(Throttle, TraceRecordsOneEventPerThrottleVerdict) {
  AdaptedKernel S;
  for (sim::MachineConfig Cfg :
       {sim::MachineConfig::inOrder(), sim::MachineConfig::outOfOrder()}) {
    Cfg.EnableSSPThrottle = true;
    // 2^20-entry rings so nothing drops and the count is exact.
    obs::TraceSink Sink(8, 20);
    sim::SimStats Stats = S.run(S.Enhanced, Cfg, nullptr, &Sink);
    ASSERT_EQ(Sink.dropped(), 0u);
    uint64_t Throttles = 0;
    for (const obs::TraceEvent &E : Sink.drain())
      if (E.Kind == obs::EventKind::Throttle) {
        ++Throttles;
        EXPECT_NE(E.A, 0u) << "the event names the disabled trigger";
      }
    EXPECT_GT(Stats.ThrottleEvents, 0u);
    EXPECT_EQ(Throttles, Stats.ThrottleEvents);
  }
}

TEST(Throttle, RecoversOOORegression) {
  AdaptedKernel S;
  sim::MachineConfig Plain = sim::MachineConfig::outOfOrder();
  sim::MachineConfig Throttled = sim::MachineConfig::outOfOrder();
  Throttled.EnableSSPThrottle = true;

  uint64_t Base = S.run(S.Orig, Plain).Cycles;
  uint64_t Ssp = S.run(S.Enhanced, Plain).Cycles;
  uint64_t SspThrottled = S.run(S.Enhanced, Throttled).Cycles;

  // Static SSP regresses the phased kernel on OOO; the throttle must
  // recover most of the loss (damage before the first health verdict
  // cannot be undone, so full recovery is not expected).
  ASSERT_GT(Ssp, Base) << "the phased kernel should regress without "
                          "throttling (otherwise this test is vacuous)";
  EXPECT_LT(SspThrottled, Ssp);
  uint64_t Regression = Ssp - Base;
  uint64_t Residual = SspThrottled > Base ? SspThrottled - Base : 0;
  EXPECT_LT(Residual * 2, Regression)
      << "throttling must recover at least half the regression";
}

TEST(Throttle, PreservesResults) {
  AdaptedKernel S;
  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  Cfg.EnableSSPThrottle = true;
  S.run(S.Enhanced, Cfg); // Checksum asserted inside run().
}

TEST(Throttle, NeutralOnGenuinelyUsefulChains) {
  // The arc kernel's prefetches are useful; throttling must not fire
  // destructively nor slow the run down materially.
  AdaptedKernel S(makeArcKernel());
  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  sim::SimStats Plain = S.run(S.Enhanced, Cfg);
  Cfg.EnableSSPThrottle = true;
  sim::SimStats Throttled = S.run(S.Enhanced, Cfg);
  EXPECT_LT(static_cast<double>(Throttled.Cycles),
            1.10 * static_cast<double>(Plain.Cycles));
  EXPECT_GT(Throttled.UsefulPrefetches, 0u);
}

TEST(Throttle, UsefulnessCountersTrackLongRangePrefetches) {
  AdaptedKernel S;
  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  sim::SimStats Stats = S.run(S.Enhanced, Cfg);
  // Pass one generates useful prefetches; cache-resident passes generate
  // speculative touches that earn no credit.
  EXPECT_GT(Stats.SpecPrefetches, Stats.UsefulPrefetches);
  EXPECT_GT(Stats.UsefulPrefetches, 0u);
}

TEST(Throttle, DisabledByDefault) {
  AdaptedKernel S;
  sim::SimStats Stats = S.run(S.Enhanced, sim::MachineConfig::inOrder());
  EXPECT_EQ(Stats.ThrottleEvents, 0u);
}

// The throttle's verdicts, pinned: one kernel it throttles hard (phased)
// and one it leaves alone (arc), on both pipelines. Each case pins the
// run's headline counters and every verdict as a (cycle, trigger) pair,
// sorted because verdicts within one evaluation may come in any order.
TEST(Throttle, VerdictsMatchParent) {
  AdaptedKernel Phased;
  AdaptedKernel Arc(makeArcKernel());
  struct Expected {
    AdaptedKernel &K;
    bool InOrder;
    uint64_t ThrottleEvents, Cycles, UsefulPrefetches;
    std::vector<std::pair<uint64_t, uint64_t>> Verdicts;
  };
  const Expected Cases[] = {
      {Phased, true, 2, 287929, 680, {{212992, 0x22}, {245760, 0x21}}},
      {Phased, false, 1, 58147, 277, {{49152, 0x22}}},
      {Arc, true, 0, 140233, 1372, {}},
      {Arc, false, 0, 113164, 1199, {}},
  };
  for (const Expected &E : Cases) {
    SCOPED_TRACE(E.K.W.Name + (E.InOrder ? " in-order" : " ooo"));
    sim::MachineConfig Cfg = E.InOrder ? sim::MachineConfig::inOrder()
                                       : sim::MachineConfig::outOfOrder();
    Cfg.EnableSSPThrottle = true;
    obs::TraceSink Sink(8, 20);
    sim::SimStats Stats = E.K.run(E.K.Enhanced, Cfg, nullptr, &Sink);
    ASSERT_EQ(Sink.dropped(), 0u);
    std::vector<std::pair<uint64_t, uint64_t>> Verdicts;
    for (const obs::TraceEvent &Ev : Sink.drain())
      if (Ev.Kind == obs::EventKind::Throttle)
        Verdicts.emplace_back(Ev.Ts, Ev.A);
    std::sort(Verdicts.begin(), Verdicts.end());
    EXPECT_EQ(Stats.ThrottleEvents, E.ThrottleEvents);
    EXPECT_EQ(Stats.Cycles, E.Cycles);
    EXPECT_EQ(Stats.UsefulPrefetches, E.UsefulPrefetches);
    EXPECT_EQ(Verdicts, E.Verdicts);
  }
}
