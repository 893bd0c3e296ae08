//===- tests/feedback_test.cpp - closed-loop feedback re-adaptation -------===//
//
// The feedback subsystem's contracts, in three layers:
//
//  * proposeOverrides is pure policy: synthetic manifests + fate rollups
//    pin the fate-distribution -> action mapping, the first-match-wins
//    priority order, every saturation cap (the fixpoint guarantee), the
//    MinSample evidence gate, and that a directive reaches every load a
//    combined slice covers.
//  * runFeedbackLoop is deterministic for any ToolOptions::Jobs value,
//    accepts rounds monotonically (the best-so-far binary never regresses)
//    and never simulates a binary that fails verification.
//  * Carrying feedback configuration in ToolOptions without running the
//    loop must leave PostPassTool::adapt bit-identical — the off switch.
//
// The last group drives the `feedback.*` verify pass end-to-end: a real
// override must audit clean (with an applied-override note), and tampered
// manifests must produce the dropped-load-adapted / unapplied-override /
// inactive-override findings the closed loop relies on.
//
//===----------------------------------------------------------------------===//

#include "ProfiledFixture.h"
#include "core/Feedback.h"
#include "core/ReportRender.h"
#include "verify/PassManager.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::core;
using namespace ssp::workloads;

namespace {

// -- proposeOverrides fixtures -------------------------------------------
// Synthetic ids: one slice covering two loads, spawned by one cut-set
// trigger (plus, where a test needs it, one restart trigger).

constexpr uint64_t kLoad = 101;
constexpr uint64_t kLoad2 = 102;
constexpr uint64_t kCut = 501;
constexpr uint64_t kRestart = 502;

verify::SliceManifest sliceManifest() {
  verify::SliceManifest SM;
  SM.PrimaryLoadSid = kLoad;
  SM.TargetLoadSids = {kLoad, kLoad2};
  SM.RegionDepth = 1;
  SM.CutTriggerSids = {kCut};
  return SM;
}

sim::PrefetchAttribution fates(uint64_t Trigger, uint64_t Timely,
                               uint64_t Late, uint64_t Evicted,
                               uint64_t Redundant = 0, uint64_t Wild = 0) {
  sim::PrefetchAttribution A;
  A.Trigger = Trigger;
  A.Spawns = 1;
  A.MaxChainDepth = 1;
  A.Fates[static_cast<unsigned>(sim::PrefetchFate::UsefulTimely)] = Timely;
  A.Fates[static_cast<unsigned>(sim::PrefetchFate::UsefulLate)] = Late;
  A.Fates[static_cast<unsigned>(sim::PrefetchFate::EvictedUnused)] = Evicted;
  A.Fates[static_cast<unsigned>(sim::PrefetchFate::Redundant)] = Redundant;
  A.Fates[static_cast<unsigned>(sim::PrefetchFate::Wild)] = Wild;
  return A;
}

/// Runs the policy over one slice manifest and returns (Next, Decisions).
std::map<uint64_t, LoadOverride>
propose(const verify::SliceManifest &SM,
        const std::vector<sim::PrefetchAttribution> &Attrib,
        std::vector<FeedbackDecision> &Decisions,
        const std::map<uint64_t, LoadOverride> &Current = {}) {
  verify::AdaptationManifest M;
  M.Slices.push_back(SM);
  return proposeOverrides(FeedbackPolicy(), M, Attrib, Current, &Decisions);
}

TEST(FeedbackPolicy, DropsSlicesWithNoUsefulPrefetches) {
  std::vector<FeedbackDecision> Ds;
  // 1 useful in 1000 attributed accesses: below DropUsefulMax (2%).
  auto Next = propose(sliceManifest(), {fates(kCut, 1, 0, 999)}, Ds);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Action, "drop");
  EXPECT_EQ(Ds[0].LoadSid, kLoad);
  // The directive must reach every load the combined slice covers.
  ASSERT_EQ(Next.size(), 2u);
  EXPECT_TRUE(Next.at(kLoad).Drop);
  EXPECT_TRUE(Next.at(kLoad2).Drop);
}

TEST(FeedbackPolicy, ThrottleOutranksHoist) {
  std::vector<FeedbackDecision> Ds;
  // Evicted-unused 50% (> 25%) *and* useful-late ~97% (> 50%): the
  // throttle must win — running less far ahead may fix both.
  auto Next = propose(sliceManifest(), {fates(kCut, 10, 290, 300)}, Ds);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Action, "throttle");
  EXPECT_EQ(Next.at(kLoad).TripBudgetLog2, -1);
  EXPECT_EQ(Next.at(kLoad).MinRegionDepth, 0u);

  // Saturated at MinTripBudgetLog2 with nothing else actionable (no
  // useful-late, eviction pressure blocks deepening): a fixpoint.
  std::map<uint64_t, LoadOverride> Cur;
  Cur[kLoad].TripBudgetLog2 = FeedbackPolicy().MinTripBudgetLog2;
  Cur[kLoad2].TripBudgetLog2 = FeedbackPolicy().MinTripBudgetLog2;
  Ds.clear();
  Next = propose(sliceManifest(), {fates(kCut, 300, 0, 300)}, Ds, Cur);
  EXPECT_TRUE(Ds.empty());
  EXPECT_EQ(Next, Cur);
}

TEST(FeedbackPolicy, HoistsLateDominatedSlicesOneStepOut) {
  std::vector<FeedbackDecision> Ds;
  // 75% of useful prefetches arrive late: require a region one step
  // further out than the depth the slice was built at.
  auto Next = propose(sliceManifest(), {fates(kCut, 100, 300, 0)}, Ds);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Action, "hoist");
  EXPECT_NE(Ds[0].Why.find("late slack"), std::string::npos);
  EXPECT_EQ(Next.at(kLoad).MinRegionDepth, 2u);
  EXPECT_EQ(Next.at(kLoad2).MinRegionDepth, 2u);

  // At MaxHoistDepth the hoist saturates; late-dominated fates also block
  // deepening, so the proposal is a fixpoint.
  verify::SliceManifest SM = sliceManifest();
  SM.RegionDepth = FeedbackPolicy().MaxHoistDepth;
  Ds.clear();
  Next = propose(SM, {fates(kCut, 100, 300, 0)}, Ds);
  EXPECT_TRUE(Ds.empty());
  EXPECT_TRUE(Next.empty());
}

TEST(FeedbackPolicy, DisablesRestartTriggersThatOnlyRepeatWork) {
  verify::SliceManifest SM = sliceManifest();
  SM.RestartTriggerSids = {kRestart};
  // Cut-set trigger sustains depth-100 chains with mostly-timely fates;
  // the restart trigger's re-arms are 2.5% useful. Timely fates would
  // otherwise deepen — no-restart must outrank the deepen action.
  sim::PrefetchAttribution Cut = fates(kCut, 400, 100, 0);
  Cut.MaxChainDepth = 100;
  sim::PrefetchAttribution Restart = fates(kRestart, 5, 0, 95, 100);
  std::vector<FeedbackDecision> Ds;
  auto Next = propose(SM, {Cut, Restart}, Ds);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Action, "no-restart");
  EXPECT_TRUE(Next.at(kLoad).NoRestartTrigger);
  EXPECT_TRUE(Next.at(kLoad2).NoRestartTrigger);

  // Shallow cut chains (below RestartMinCutDepth) keep the restart
  // trigger; the timely headroom then deepens the budget instead.
  Cut.MaxChainDepth = FeedbackPolicy().RestartMinCutDepth - 1;
  Ds.clear();
  Next = propose(SM, {Cut, Restart}, Ds);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Action, "deepen-budget");
  EXPECT_FALSE(Next.at(kLoad).NoRestartTrigger);
}

TEST(FeedbackPolicy, DeepensTimelySlicesUntilTheCaps) {
  // Inner-loop members present: deepen by doubling the unroll.
  verify::SliceManifest SM = sliceManifest();
  SM.InnerMembers = 3;
  SM.InnerUnroll = 2;
  std::vector<FeedbackDecision> Ds;
  auto Next = propose(SM, {fates(kCut, 500, 50, 0)}, Ds);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Action, "deepen-unroll");
  EXPECT_EQ(Next.at(kLoad).InnerUnroll, 4u);

  // Unroll saturated at MaxInnerUnroll: no action (and no budget
  // fallback — the slice does walk inner members).
  SM.InnerUnroll = FeedbackPolicy().MaxInnerUnroll;
  Ds.clear();
  Next = propose(SM, {fates(kCut, 500, 50, 0)}, Ds);
  EXPECT_TRUE(Ds.empty());

  // No inner members: deepen the trip budget instead, up to the cap.
  SM.InnerMembers = 0;
  SM.InnerUnroll = 0;
  Ds.clear();
  Next = propose(SM, {fates(kCut, 500, 50, 0)}, Ds);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Action, "deepen-budget");
  EXPECT_EQ(Next.at(kLoad).TripBudgetLog2, 1);

  std::map<uint64_t, LoadOverride> Cur;
  Cur[kLoad].TripBudgetLog2 = FeedbackPolicy().MaxTripBudgetLog2;
  Cur[kLoad2].TripBudgetLog2 = FeedbackPolicy().MaxTripBudgetLog2;
  Ds.clear();
  Next = propose(SM, {fates(kCut, 500, 50, 0)}, Ds, Cur);
  EXPECT_TRUE(Ds.empty());
  EXPECT_EQ(Next, Cur);
}

TEST(FeedbackPolicy, RequiresEvidenceAndAJoinKey) {
  // 255 attributed accesses (< MinSample == 256): fates this bad would
  // drop the load, but the evidence gate must hold first.
  std::vector<FeedbackDecision> Ds;
  auto Next = propose(sliceManifest(), {fates(kCut, 0, 0, 255)}, Ds);
  EXPECT_TRUE(Ds.empty());
  EXPECT_TRUE(Next.empty());

  // Unattributed trigger (simulation never saw a spawn): no evidence.
  Next = propose(sliceManifest(), {}, Ds);
  EXPECT_TRUE(Ds.empty());
  EXPECT_TRUE(Next.empty());

  // Pre-PR manifest without the PrimaryLoadSid join key: nothing to do.
  verify::SliceManifest SM = sliceManifest();
  SM.PrimaryLoadSid = 0;
  SM.TargetLoadSids.clear();
  Next = propose(SM, {fates(kCut, 0, 0, 1000)}, Ds);
  EXPECT_TRUE(Ds.empty());
  EXPECT_TRUE(Next.empty());
}

// -- runFeedbackLoop ------------------------------------------------------

unsigned countCheck(const std::vector<verify::Diagnostic> &Ds,
                    const std::string &CheckId,
                    verify::Severity Sev) {
  unsigned N = 0;
  for (const verify::Diagnostic &D : Ds)
    if (D.CheckId == CheckId && D.Sev == Sev)
      ++N;
  return N;
}

/// One shared em3d loop per Jobs value (the loop resimulates every round;
/// sharing keeps the binary's wall time down).
const FeedbackResult &em3dLoop(unsigned Jobs) {
  static std::map<unsigned, FeedbackResult> Cache;
  auto It = Cache.find(Jobs);
  if (It == Cache.end()) {
    const ProfiledWorkload &PW = profiledWorkload(makeEm3d());
    ToolOptions TO;
    TO.Jobs = Jobs;
    TO.FeedbackRounds = DefaultFeedbackRounds;
    It = Cache
             .emplace(Jobs,
                      runFeedbackLoop(PW.P, PW.PD, TO, PW.W.BuildMemory))
             .first;
  }
  return It->second;
}

TEST(FeedbackLoop, ByteIdenticalForAnyJobsValue) {
  const FeedbackResult &Ref = em3dLoop(1);
  for (unsigned Jobs : {4u, 8u}) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    const FeedbackResult &FR = em3dLoop(Jobs);
    // Same binary, byte for byte, and the same audit trail.
    EXPECT_EQ(FR.Best.str(), Ref.Best.str());
    EXPECT_EQ(renderFeedbackText(FR), renderFeedbackText(Ref));
  }
}

TEST(FeedbackLoop, AcceptsMonotonicallyAndConverges) {
  const FeedbackResult &FR = em3dLoop(1);
  ASSERT_FALSE(FR.Rounds.empty());
  EXPECT_LE(FR.Rounds.size(), DefaultFeedbackRounds);
  EXPECT_TRUE(FR.Fixpoint);

  // Round 1 is the one-shot baseline: no decisions, always accepted.
  EXPECT_TRUE(FR.Rounds[0].Accepted);
  EXPECT_TRUE(FR.Rounds[0].Decisions.empty());
  EXPECT_EQ(FR.OneShotSpeedup, FR.Rounds[0].Speedup);

  // Monotonic accept: each accepted round strictly beats the best before
  // it, and the final result can never regress below the one-shot.
  double Best = 0.0;
  for (const FeedbackRound &R : FR.Rounds) {
    if (R.Accepted) {
      EXPECT_GT(R.Speedup, Best) << "round " << R.Round;
      Best = R.Speedup;
    }
  }
  EXPECT_EQ(FR.BestSpeedup, Best);
  EXPECT_GE(FR.BestSpeedup, FR.OneShotSpeedup);
  // em3d's triggers fire late enough that the loop must find at least
  // one re-adaptation worth proposing.
  EXPECT_GT(FR.Rounds.size(), 1u);

  // The accepted binary's manifest records its override set, keeping the
  // feedback.* audit active on the delivered result.
  EXPECT_EQ(FR.BestReport.Manifest.FeedbackOverrides.empty(),
            FR.BestOverrides.empty());
  EXPECT_EQ(FR.BestReport.VerifyErrors, 0u);
}

TEST(FeedbackLoop, UnsafeRoundOneIsReturnedUnsimulated) {
  // An original with a write to the hardwired r0 adapts into a binary
  // that fails pass 1. With FatalOnVerifyError off the loop must hand it
  // back with its diagnostics and never simulate it.
  const ProfiledWorkload &PW = profiledWorkload(makeEm3d());
  ir::Program Orig = PW.P.clone();
  ir::Function &F = Orig.func(Orig.getEntry());
  ir::Instruction Mov;
  Mov.Op = ir::Opcode::MovI;
  Mov.Dst = ir::ireg(0);
  Mov.Imm = 5;
  Mov.Id = F.nextInstId();
  F.block(0).Insts.insert(F.block(0).Insts.begin(), Mov);

  ToolOptions TO;
  TO.FatalOnVerifyError = false;
  TO.FeedbackRounds = DefaultFeedbackRounds;
  unsigned Simulations = 0;
  auto BuildMemory = [&](mem::SimMemory &M) {
    ++Simulations;
    return PW.W.BuildMemory(M);
  };
  FeedbackResult FR = runFeedbackLoop(Orig, PW.PD, TO, BuildMemory);
  EXPECT_EQ(Simulations, 0u);
  ASSERT_EQ(FR.Rounds.size(), 1u);
  EXPECT_EQ(FR.Rounds[0].Cycles, 0u);
  EXPECT_GT(FR.BestReport.VerifyErrors, 0u);
  EXPECT_EQ(countCheck(FR.BestReport.VerifyDiags, "structural.hardwired-write",
                       verify::Severity::Error),
            1u);
  EXPECT_EQ(FR.Best.str(), PostPassTool(Orig, PW.PD, TO).adapt().str());
}

TEST(FeedbackLoop, CarriedOptionsDoNotPerturbOneShotAdaptation) {
  // ToolOptions carries FeedbackRounds + policy for the CLIs and the
  // daemon, but adapt() itself must never read them: with the loop off,
  // the emitted binary is bit-identical to a default-options run.
  const ProfiledWorkload &PW = profiledWorkload(makeMcf());
  ToolOptions Plain;
  ir::Program A = PostPassTool(PW.P, PW.PD, Plain).adapt();
  ToolOptions Carried;
  Carried.FeedbackRounds = 4;
  Carried.Feedback.DropUsefulMax = 0.99;
  Carried.Feedback.HoistLateMin = 0.01;
  Carried.Feedback.MinSample = 1;
  ir::Program B = PostPassTool(PW.P, PW.PD, Carried).adapt();
  EXPECT_EQ(A.str(), B.str());
}

// -- the feedback.* verify pass -------------------------------------------

TEST(FeedbackVerify, AppliedOverrideAuditsCleanWithANote) {
  const ProfiledWorkload &PW = profiledWorkload(makeMcf());
  AdaptationReport Base;
  PostPassTool(PW.P, PW.PD, ToolOptions()).adapt(&Base);
  ASSERT_FALSE(Base.Manifest.Slices.empty());
  uint64_t Sid = Base.Manifest.Slices[0].PrimaryLoadSid;
  ASSERT_NE(Sid, 0u);

  ToolOptions TO;
  TO.Overrides[Sid].NoRestartTrigger = true;
  AdaptationReport Rep;
  PostPassTool(PW.P, PW.PD, TO).adapt(&Rep);
  EXPECT_EQ(Rep.VerifyErrors, 0u);
  ASSERT_EQ(Rep.Manifest.FeedbackOverrides.size(), 1u);
  EXPECT_EQ(Rep.Manifest.FeedbackOverrides[0].LoadSid, Sid);
  EXPECT_EQ(countCheck(Rep.VerifyDiags, "feedback.applied-override",
                       verify::Severity::Note),
            1u);
}

TEST(FeedbackVerify, TamperedManifestsAreRejected) {
  const ProfiledWorkload &PW = profiledWorkload(makeMcf());
  AdaptationReport Rep;
  ir::Program Enhanced = PostPassTool(PW.P, PW.PD, ToolOptions()).adapt(&Rep);
  ASSERT_FALSE(Rep.Manifest.Slices.empty());
  const verify::SliceManifest &SM = Rep.Manifest.Slices[0];

  auto runWith = [&](const verify::FeedbackOverrideRecord &R) {
    verify::AdaptationManifest M = Rep.Manifest;
    M.FeedbackOverrides.push_back(R);
    verify::VerifyContext Ctx{Enhanced, &PW.P, &M};
    return verify::runStandardPipeline(Ctx).diagnostics();
  };

  // A drop directive while the load's slice exists: the round lied.
  verify::FeedbackOverrideRecord Drop;
  Drop.LoadSid = SM.PrimaryLoadSid;
  Drop.Drop = true;
  EXPECT_GE(countCheck(runWith(Drop), "feedback.dropped-load-adapted",
                       verify::Severity::Error),
            1u);

  // A hoist directive the emitted region depth does not satisfy.
  verify::FeedbackOverrideRecord Hoist;
  Hoist.LoadSid = SM.PrimaryLoadSid;
  Hoist.MinRegionDepth = SM.RegionDepth + 1;
  EXPECT_GE(countCheck(runWith(Hoist), "feedback.unapplied-override",
                       verify::Severity::Error),
            1u);

  // An override for a load no slice covers is inert, not an error: the
  // re-adaptation may legitimately have deselected the load.
  verify::FeedbackOverrideRecord Stray;
  Stray.LoadSid = 0xdead;
  std::vector<verify::Diagnostic> Ds = runWith(Stray);
  EXPECT_EQ(countCheck(Ds, "feedback.inactive-override",
                       verify::Severity::Note),
            1u);
  for (const verify::Diagnostic &D : Ds)
    EXPECT_NE(D.Sev, verify::Severity::Error) << D.CheckId << ": "
                                              << D.Message;
}

} // namespace
