//===- tests/obs_test.cpp - Observability layer tests ---------------------===//
//
// The obs contract has two halves:
//
//  1. Zero overhead when off: a simulation without a TraceSink and an
//     adaptation without a Registry produce bit-identical results to runs
//     with them attached — observability may never perturb what it
//     observes. Pinned over the full paper suite on both pipelines, in
//     both skip modes, in the style of tests/skip_test.cpp.
//
//  2. Faithful when on: recorded event counts must reconcile with the
//     simulator's own counters, the em3d attribution rollup must cover
//     (well over) 90% of speculative accesses, and the ring buffers must
//     drop oldest-first with an exact dropped count.
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "harness/Experiment.h"
#include "obs/Registry.h"
#include "obs/TraceSink.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ssp;
using namespace ssp::harness;

namespace {

/// Field-by-field SimStats comparison, including the attribution rollup.
/// Unlike skip_test's variant this one compares SkippedCycles/SkipEvents
/// too: both sides of every diff here run in the same skip mode, so even
/// the diagnostics must match.
void expectStatsIdentical(const sim::SimStats &A, const sim::SimStats &B,
                          const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.MainInsts, B.MainInsts);
  EXPECT_EQ(A.SpecInsts, B.SpecInsts);
  for (unsigned C = 0; C < sim::NumCycleCats; ++C)
    EXPECT_EQ(A.CatCycles[C], B.CatCycles[C]) << "category " << C;
  EXPECT_EQ(A.SkippedCycles, B.SkippedCycles);
  EXPECT_EQ(A.SkipEvents, B.SkipEvents);

  EXPECT_EQ(A.TriggersFired, B.TriggersFired);
  EXPECT_EQ(A.TriggersIgnored, B.TriggersIgnored);
  EXPECT_EQ(A.SpawnsSucceeded, B.SpawnsSucceeded);
  EXPECT_EQ(A.SpawnsDropped, B.SpawnsDropped);
  EXPECT_EQ(A.SpecWildLoads, B.SpecWildLoads);
  EXPECT_EQ(A.SpecPrefetches, B.SpecPrefetches);
  EXPECT_EQ(A.UsefulPrefetches, B.UsefulPrefetches);
  EXPECT_EQ(A.ThrottleEvents, B.ThrottleEvents);

  EXPECT_EQ(A.Branches, B.Branches);
  EXPECT_EQ(A.BranchMispredicts, B.BranchMispredicts);
  EXPECT_EQ(A.CacheTotals.Accesses, B.CacheTotals.Accesses);
  EXPECT_EQ(A.CacheTotals.TLBMisses, B.CacheTotals.TLBMisses);
  for (unsigned L = 0; L < 4; ++L) {
    EXPECT_EQ(A.CacheTotals.Hits[L], B.CacheTotals.Hits[L]) << "level " << L;
    EXPECT_EQ(A.CacheTotals.Partials[L], B.CacheTotals.Partials[L])
        << "level " << L;
  }

  ASSERT_EQ(A.LoadProfile.size(), B.LoadProfile.size());
  auto ItB = B.LoadProfile.begin();
  for (const auto &[Sid, SA] : A.LoadProfile) {
    EXPECT_EQ(Sid, ItB->first);
    EXPECT_EQ(SA.Accesses, ItB->second.Accesses);
    EXPECT_EQ(SA.MissCycles, ItB->second.MissCycles);
    ++ItB;
  }

  ASSERT_EQ(A.Attribution.size(), B.Attribution.size());
  for (size_t I = 0; I < A.Attribution.size(); ++I) {
    const sim::PrefetchAttribution &X = A.Attribution[I];
    const sim::PrefetchAttribution &Y = B.Attribution[I];
    EXPECT_EQ(X.Trigger, Y.Trigger);
    EXPECT_EQ(X.Slice, Y.Slice);
    EXPECT_EQ(X.Spawns, Y.Spawns);
    EXPECT_EQ(X.MaxChainDepth, Y.MaxChainDepth);
    for (unsigned F = 0; F < sim::NumPrefetchFates; ++F)
      EXPECT_EQ(X.Fates[F], Y.Fates[F])
          << sim::prefetchFateName(static_cast<sim::PrefetchFate>(F));
  }
}

/// Like SuiteRunner::simulate, with an optional trace sink attached.
sim::SimStats simulateTraced(const ir::Program &P,
                             const workloads::Workload &W,
                             sim::MachineConfig Cfg,
                             obs::TraceSink *Sink) {
  return sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory, Cfg, Sink)
      .Stats;
}

SuiteRunner &runner() {
  static SuiteRunner R;
  return R;
}

ir::Program enhance(const workloads::Workload &W) {
  return runner().adaptedOf(W).Program.clone();
}

sim::MachineConfig cfgFor(sim::PipelineKind Pipe, bool SkipEnabled) {
  sim::MachineConfig Cfg = Pipe == sim::PipelineKind::InOrder
                               ? sim::MachineConfig::inOrder()
                               : sim::MachineConfig::outOfOrder();
  Cfg.SkipIdleCycles = SkipEnabled;
  return Cfg;
}

class TracingOverhead
    : public ::testing::TestWithParam<sim::PipelineKind> {};

// The zero-overhead pin (the PR's acceptance bar): attaching a TraceSink
// must not change a single SimStats field, for every paper workload's
// enhanced binary, in both skip modes.
TEST_P(TracingOverhead, SinkDoesNotPerturbStats) {
  for (const workloads::Workload &W : workloads::paperSuite()) {
    SCOPED_TRACE(W.Name);
    ir::Program Enhanced = enhance(W);
    for (bool Skip : {true, false}) {
      obs::TraceSink Sink;
      sim::SimStats Off =
          simulateTraced(Enhanced, W, cfgFor(GetParam(), Skip), nullptr);
      sim::SimStats On =
          simulateTraced(Enhanced, W, cfgFor(GetParam(), Skip), &Sink);
      expectStatsIdentical(Off, On,
                           W.Name + (Skip ? " skip" : " no-skip"));
      EXPECT_GT(Sink.recorded(), 0u) << W.Name;
    }
  }
}

// Recorded events must reconcile with the simulator's counters: one
// Trigger event per fired trigger, one Spawn per successful spawn, one
// IdleSpan per skip event (and none with skipping off), and Prefetch
// events exactly covering the line-moving speculative accesses.
TEST_P(TracingOverhead, EventCountsMatchCounters) {
  workloads::Workload W = workloads::makeEm3d();
  ir::Program Enhanced = enhance(W);
  for (bool Skip : {true, false}) {
    SCOPED_TRACE(Skip ? "skip" : "no-skip");
    // 2^20-entry rings so nothing drops and counts are exact.
    obs::TraceSink Sink(8, 20);
    sim::SimStats S =
        simulateTraced(Enhanced, W, cfgFor(GetParam(), Skip), &Sink);
    ASSERT_EQ(Sink.dropped(), 0u);
    std::vector<obs::TraceEvent> Events = Sink.drain();
    EXPECT_EQ(Events.size(), Sink.recorded());
    uint64_t Counts[obs::NumEventKinds] = {0, 0, 0, 0, 0};
    uint64_t IdleCycles = 0;
    for (const obs::TraceEvent &E : Events) {
      ++Counts[static_cast<unsigned>(E.Kind)];
      if (E.Kind == obs::EventKind::IdleSpan)
        IdleCycles += E.Dur;
      EXPECT_LE(E.Ts, S.Cycles);
    }
    EXPECT_EQ(Counts[static_cast<unsigned>(obs::EventKind::Trigger)],
              S.TriggersFired);
    EXPECT_EQ(Counts[static_cast<unsigned>(obs::EventKind::Spawn)],
              S.SpawnsSucceeded);
    EXPECT_EQ(Counts[static_cast<unsigned>(obs::EventKind::IdleSpan)],
              S.SkipEvents);
    EXPECT_EQ(IdleCycles, S.SkippedCycles);
    // Retire events are the tracked-line consumptions; every one carries
    // a fate the attribution rollup also counted.
    EXPECT_LE(Counts[static_cast<unsigned>(obs::EventKind::Retire)],
              Counts[static_cast<unsigned>(obs::EventKind::Prefetch)]);
    // The stream is drained in timestamp order.
    EXPECT_TRUE(std::is_sorted(
        Events.begin(), Events.end(),
        [](const obs::TraceEvent &A, const obs::TraceEvent &B) {
          return A.Ts < B.Ts;
        }));
  }
}

// The Figure-9-style attribution table: on em3d at least 90% of
// speculative accesses must resolve to a concrete (slice, trigger) origin
// (the acceptance threshold; the classifier actually attributes every
// access spawned through a chk.c trigger).
TEST_P(TracingOverhead, Em3dAttributionCoverage) {
  workloads::Workload W = workloads::makeEm3d();
  sim::SimStats S = simulateTraced(enhance(W), W,
                                   cfgFor(GetParam(), true), nullptr);
  ASSERT_GT(S.SpecPrefetches, 0u);
  uint64_t Attributed = S.attributedPrefetches();
  EXPECT_GE(Attributed * 10, S.SpecPrefetches * 9)
      << Attributed << " of " << S.SpecPrefetches << " attributed";
  uint64_t Useful = 0;
  for (const sim::PrefetchAttribution &A : S.Attribution)
    Useful += A.useful();
  EXPECT_EQ(Useful, S.UsefulPrefetches);
}

INSTANTIATE_TEST_SUITE_P(Pipelines, TracingOverhead,
                         ::testing::Values(sim::PipelineKind::InOrder,
                                           sim::PipelineKind::OutOfOrder),
                         [](const auto &Info) {
                           return Info.param == sim::PipelineKind::InOrder
                                      ? "InOrder"
                                      : "OutOfOrder";
                         });

// The tool-side zero-overhead pin: adapt() with a Registry attached emits
// the same binary and report as without, and the registry ends up with
// the per-stage timers and counters populated.
TEST(ToolMetrics, RegistryDoesNotPerturbAdaptation) {
  workloads::Workload W = workloads::makeEm3d();
  core::ToolOptions Base;

  core::AdaptationReport RepOff, RepOn;
  core::PostPassTool Off(runner().originalOf(W), runner().profileOf(W),
                         Base);
  ir::Program POff = Off.adapt(&RepOff);

  obs::Registry Reg;
  core::ToolOptions WithMetrics = Base;
  WithMetrics.Metrics = &Reg;
  core::PostPassTool On(runner().originalOf(W), runner().profileOf(W),
                        WithMetrics);
  ir::Program POn = On.adapt(&RepOn);

  EXPECT_EQ(POff.str(), POn.str());
  EXPECT_EQ(RepOff.DelinquentLoads, RepOn.DelinquentLoads);
  EXPECT_EQ(RepOff.numSlices(), RepOn.numSlices());
  EXPECT_EQ(RepOff.Rewrite.TriggersInserted, RepOn.Rewrite.TriggersInserted);
  EXPECT_EQ(RepOff.VerifyErrors, RepOn.VerifyErrors);
  EXPECT_EQ(RepOff.VerifyWarnings, RepOn.VerifyWarnings);

  EXPECT_EQ(Reg.counter("adapt.runs"), 1u);
  EXPECT_EQ(Reg.counter("adapt.delinquent_loads"), RepOn.DelinquentLoads);
  EXPECT_EQ(Reg.counter("adapt.slices"), RepOn.numSlices());
  EXPECT_EQ(Reg.counter("adapt.triggers_inserted"),
            RepOn.Rewrite.TriggersInserted);
  // Six adapt stages plus one timer per verification pass.
  EXPECT_GE(Reg.numTimers(), 6u + 5u);
  EXPECT_GT(Reg.timeMs("adapt.candidates_ms"), 0.0);
}

TEST(Registry, CountersTimersAndJSON) {
  obs::Registry R;
  R.addCounter("a.b");
  R.addCounter("a.b", 2);
  R.setCounter("z", 7);
  R.addTimeMs("t1", 1.25);
  R.addTimeMs("t1", 0.75);
  EXPECT_EQ(R.counter("a.b"), 3u);
  EXPECT_EQ(R.counter("z"), 7u);
  EXPECT_EQ(R.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(R.timeMs("t1"), 2.0);
  EXPECT_EQ(R.numCounters(), 2u);
  EXPECT_EQ(R.numTimers(), 1u);
  std::string J = R.renderJSON();
  EXPECT_NE(J.find("\"a.b\": 3"), std::string::npos) << J;
  EXPECT_NE(J.find("\"z\": 7"), std::string::npos) << J;
  EXPECT_NE(J.find("\"t1\": 2.0000"), std::string::npos) << J;
  // Keys render escaped.
  obs::Registry E;
  E.addCounter("we\"ird\\key");
  EXPECT_NE(E.renderJSON().find("we\\\"ird\\\\key"), std::string::npos);
}

TEST(Registry, ScopedTimerNullRegistryIsNoOp) {
  { obs::ScopedTimerMs T(nullptr, "never"); }
  obs::Registry R;
  { obs::ScopedTimerMs T(&R, "scope_ms"); }
  EXPECT_EQ(R.numTimers(), 1u);
  EXPECT_GE(R.timeMs("scope_ms"), 0.0);
}

TEST(TraceSink, DropsOldestAndCountsExactly) {
  // 1 ring of 4 entries.
  obs::TraceSink Sink(1, 2);
  EXPECT_EQ(Sink.capacity(), 4u);
  for (uint64_t I = 0; I < 10; ++I)
    Sink.record(0, obs::EventKind::Trigger, /*Ts=*/I, 0, /*A=*/I, 0);
  EXPECT_EQ(Sink.recorded(), 10u);
  EXPECT_EQ(Sink.dropped(), 6u);
  std::vector<obs::TraceEvent> Events = Sink.drain();
  ASSERT_EQ(Events.size(), 4u);
  // The four newest survive, oldest-first.
  for (uint64_t I = 0; I < 4; ++I)
    EXPECT_EQ(Events[I].A, 6 + I);
}

TEST(TraceSink, OutOfRangeTidLandsInLastRing) {
  obs::TraceSink Sink(2, 2);
  Sink.record(99, obs::EventKind::Spawn, 5, 0, 1, 2, 3);
  Sink.record(1, obs::EventKind::Trigger, 4, 0, 7, 0);
  std::vector<obs::TraceEvent> Events = Sink.drain();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Ts, 4u);
  EXPECT_EQ(Events[1].Tid, 99u);
  EXPECT_EQ(Events[1].Extra, 3u);
}

TEST(TraceSink, ChromeJSONIsWellFormedAndNamed) {
  obs::TraceSink Sink(1, 4);
  Sink.record(0, obs::EventKind::Trigger, 10, 0, 0x123, 0);
  Sink.record(2, obs::EventKind::IdleSpan, 20, 30, 1, 0);
  std::string J = Sink.renderChromeJSON();
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"trigger\""), std::string::npos);
  EXPECT_NE(J.find("\"idle\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(J.find("\"dur\": 30"), std::string::npos);
  EXPECT_NE(J.find("\"recorded\": 2"), std::string::npos);
  EXPECT_NE(J.find("\"dropped\": 0"), std::string::npos);
}

} // namespace
