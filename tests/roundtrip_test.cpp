//===- tests/roundtrip_test.cpp - Adapted-program text round trips --------===//
//
// The safety net for serving programs over a text protocol: for every
// paper-suite and stress workload, print the *adapted* program, re-parse
// it with ir::Parser, and pin that the reparse is (a) textually
// idempotent, (b) verifier-clean, and (c) simulates bit-identically to
// the in-memory adapted program — including the sid-keyed per-load cache
// profile and the prefetch attribution, which only survive because the
// text format carries deviating instruction ids as `@id` annotations
// (the chk.c triggers a rewrite inserts out of layout order).
//
//===----------------------------------------------------------------------===//

#include "ProfiledFixture.h"
#include "StructuralCheck.h"
#include "core/PostPassTool.h"
#include "ir/Parser.h"
#include "sim/Run.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::workloads;

namespace {

/// Full architectural SimStats comparison (the sample_test idiom plus the
/// sid-keyed maps), excluding only the simulator diagnostics.
void expectStatsIdentical(const sim::SimStats &A, const sim::SimStats &B,
                          const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.MainInsts, B.MainInsts);
  EXPECT_EQ(A.SpecInsts, B.SpecInsts);
  for (unsigned C = 0; C < sim::NumCycleCats; ++C)
    EXPECT_EQ(A.CatCycles[C], B.CatCycles[C]) << "category " << C;
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
    EXPECT_EQ(A.CacheTotals.Hits[L], B.CacheTotals.Hits[L]) << "lvl " << L;
    EXPECT_EQ(A.CacheTotals.Partials[L], B.CacheTotals.Partials[L])
        << "lvl " << L;
  }

  // The sid-keyed cache profile: identical keys, in identical insertion
  // order, with identical counts. This is what breaks if instruction ids
  // are not preserved across print -> parse.
  ASSERT_EQ(A.LoadProfile.size(), B.LoadProfile.size());
  auto BIt = B.LoadProfile.begin();
  for (const auto &[Sid, SA] : A.LoadProfile) {
    const auto &[SidB, SB] = *BIt++;
    EXPECT_EQ(Sid, SidB);
    EXPECT_EQ(SA.Accesses, SB.Accesses);
    EXPECT_EQ(SA.MissCycles, SB.MissCycles);
    for (unsigned L = 0; L < 4; ++L) {
      EXPECT_EQ(SA.Hits[L], SB.Hits[L]) << "lvl " << L;
      EXPECT_EQ(SA.Partials[L], SB.Partials[L]) << "lvl " << L;
    }
  }

  // Trigger/slice attribution is also sid-keyed.
  ASSERT_EQ(A.Attribution.size(), B.Attribution.size());
  for (size_t I = 0; I < A.Attribution.size(); ++I) {
    const sim::PrefetchAttribution &PA = A.Attribution[I];
    const sim::PrefetchAttribution &PB = B.Attribution[I];
    EXPECT_EQ(PA.Trigger, PB.Trigger);
    EXPECT_EQ(PA.Slice, PB.Slice);
    EXPECT_EQ(PA.Spawns, PB.Spawns);
    EXPECT_EQ(PA.MaxChainDepth, PB.MaxChainDepth);
    for (unsigned F = 0; F < sim::NumPrefetchFates; ++F)
      EXPECT_EQ(PA.Fates[F], PB.Fates[F]) << "fate " << F;
  }
}

sim::SimStats simulate(const ir::Program &P, const Workload &W,
                       sim::MachineConfig Cfg) {
  return sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory, Cfg).Stats;
}

void roundTripWorkload(const Workload &W) {
  SCOPED_TRACE(W.Name);
  const ProfiledWorkload &PW = profiledWorkload(W);
  core::PostPassTool Tool(PW.P, PW.PD);
  ir::Program Adapted = Tool.adapt();

  // Print, re-parse, re-print: the text is idempotent and the reparse is
  // verifier-clean.
  std::string Text = Adapted.str();
  ir::Program Reparsed;
  std::string Err;
  ASSERT_TRUE(ir::parseProgram(Text, Reparsed, Err)) << Err;
  EXPECT_TRUE(tests::wellFormed(Reparsed));
  EXPECT_EQ(Reparsed.str(), Text);

  // Bit-identical simulation on both pipeline models.
  expectStatsIdentical(simulate(Adapted, W, sim::MachineConfig::inOrder()),
                       simulate(Reparsed, W, sim::MachineConfig::inOrder()),
                       "in-order");
  expectStatsIdentical(
      simulate(Adapted, W, sim::MachineConfig::outOfOrder()),
      simulate(Reparsed, W, sim::MachineConfig::outOfOrder()), "ooo");
}

TEST(AdaptedRoundTrip, PaperSuite) {
  for (const Workload &W : paperSuite())
    roundTripWorkload(W);
}

TEST(AdaptedRoundTrip, Stress) {
  roundTripWorkload(makeStress());
  roundTripWorkload(makeStress(8, 6, 3));
}

// The annotations appear exactly where ids deviate from layout order: a
// freshly parsed unannotated program numbers its instructions in layout
// order and so prints with no `@` at all, while a rewrite that inserts
// triggers mid-block produces out-of-order ids and must annotate. (A
// builder-produced program like mcf, whose blocks were filled out of
// order, legitimately carries annotations from the start.)
TEST(AdaptedRoundTrip, AnnotationsAppearExactlyWhereIdsDeviate) {
  static const char *Src = R"(function main (fn0) [entry]:
  bb0 <entry>:
    movi r1 = 64
  bb1 <loop>:
    ld8 r2 = [r1 + 0]
    add r3 = r3, r2
    cmpi.ne p1 = r2, 0
    br (p1) bb1
  bb2 <exit>:
    halt
)";
  ir::Program P;
  std::string Err;
  ASSERT_TRUE(ir::parseProgram(Src, P, Err)) << Err;
  EXPECT_EQ(P.str().find('@'), std::string::npos)
      << "layout-ordered ids need no annotations";

  const ProfiledWorkload &PW = profiledWorkload(makeMcf());
  core::PostPassTool Tool(PW.P, PW.PD);
  core::AdaptationReport Rep;
  ir::Program Adapted = Tool.adapt(&Rep);
  ASSERT_GT(Rep.Rewrite.TriggersInserted, 0u);
  EXPECT_NE(Adapted.str().find('@'), std::string::npos)
      << "inserted triggers get out-of-order ids and must be annotated";
}

} // namespace
