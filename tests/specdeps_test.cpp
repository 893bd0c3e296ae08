//===- tests/specdeps_test.cpp - speculation-aware dependence pruning -----===//
//
// The speculation layer end to end:
//
//   * analysis::SpecDeps classification unit tests on a hand-built loop:
//     must (intra-iteration / non-candidate) vs hot vs cold against the
//     confidence threshold, uncovered consumers always hot;
//   * determinism: adaptation with --spec-deps on is byte-identical —
//     program text and the speculation.* diagnostic JSON — across
//     ToolOptions::Jobs 1/4/8;
//   * the off-switch differential: with EnableSpecDeps false the pipeline
//     output is bit-identical to the default-options pipeline, with no
//     SpecDrops and no speculation.* diagnostics;
//   * verification negative fixtures: hand-built manifests whose drops
//     lack coverage, re-classify as must, or mismatch the recorded
//     evidence are each rejected with a fatal speculation.* error.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecDeps.h"
#include "core/PostPassTool.h"
#include "ir/IRBuilder.h"
#include "verify/Checks.h"
#include "workloads/Workload.h"

#include "ProfiledFixture.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::analysis;
using namespace ssp::ir;
using namespace ssp::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Classification unit tests
//===----------------------------------------------------------------------===//

/// A minimal pointer-chasing loop with one rare "resync" shape: the
/// pointer advance (addI) feeds the next iteration's load only across the
/// back edge, while the same def reaches the loop compare within the
/// iteration. Instruction indices in the loop block:
///
///   0: load V, P, 0      consumer of the carried P edge
///   1: add  S, S, V      S's def->use flow is purely carried (itself)
///   2: store P, 16, S    same-block forward store for the mem-must case
///   3: load  T, P, 16    reads inst 2's store every execution
///   4: addI P, P, 8      carried producer (also feeds inst 5 forward)
///   5: cmp  LT C, P, K
///   6: br   C, loop
struct LoopFixture {
  Program P;
  std::unique_ptr<ProgramDeps> Deps;
  InstRef EntryMov, Load, Add, Store, Load2, AddI, Cmp;

  // Evidence backing the classifier; rows keyed by Instruction::Id.
  std::vector<DepEdgeCount> MemDeps, RegDeps;
  std::vector<InstCountRow> InstCounts;

  LoopFixture() {
    IRBuilder B(P);
    B.createFunction("main");
    uint32_t Entry = B.createBlock("entry");
    uint32_t Loop = B.createBlock("loop");
    uint32_t Exit = B.createBlock("exit");

    const Reg Ptr = ireg(1), Sum = ireg(2), Val = ireg(3), K = ireg(4),
              Tmp = ireg(5), Res = ireg(6);
    const Reg Cont = preg(1);

    B.setInsertPoint(Entry);
    B.movI(Ptr, 0x1000);
    B.movI(Sum, 0);
    B.movI(K, 0x1000 + 100 * 8);
    B.jmp(Loop);

    B.setInsertPoint(Loop);
    B.load(Val, Ptr, 0);
    B.add(Sum, Sum, Val);
    B.store(Ptr, 16, Sum);
    B.load(Tmp, Ptr, 16);
    B.addI(Ptr, Ptr, 8);
    B.cmp(CondCode::LT, Cont, Ptr, K);
    B.br(Cont, Loop);

    B.setInsertPoint(Exit);
    B.movI(Res, ResultAddr);
    B.store(Res, 0, Sum);
    B.halt();
    P.setEntry(0);

    Deps = std::make_unique<ProgramDeps>(P);
    EntryMov = {0, Entry, 0};
    Load = {0, Loop, 0};
    Add = {0, Loop, 1};
    Store = {0, Loop, 2};
    Load2 = {0, Loop, 3};
    AddI = {0, Loop, 4};
    Cmp = {0, Loop, 5};

    // The loop ran 100 times; the carried pointer edge activated once
    // (the rare-resync profile), the carried sum edge every iteration.
    InstCounts.resize(1);
    for (const InstRef *R : {&Load, &Add, &Store, &Load2, &AddI, &Cmp})
      InstCounts[0].push_back({R->get(P).Id, 100});
    std::sort(InstCounts[0].begin(), InstCounts[0].end());
    RegDeps.push_back({sid(AddI), sid(Load), 1});
    RegDeps.push_back({sid(Add), sid(Add), 99});
    std::sort(RegDeps.begin(), RegDeps.end());
    MemDeps.push_back({sid(Store), sid(Load2), 100});
  }

  StaticId sid(const InstRef &R) const {
    return makeStaticId(R.Func, R.get(P).Id);
  }

  DepEvidence evidence(bool Collected = true) const {
    DepEvidence Ev;
    Ev.MemDeps = &MemDeps;
    Ev.RegDeps = &RegDeps;
    Ev.InstCounts = &InstCounts;
    Ev.Collected = Collected;
    return Ev;
  }

  SpecDeps specDeps(bool Enabled, double Threshold,
                    bool Collected = true) const {
    SpecDepOptions Opts;
    Opts.Enabled = Enabled;
    Opts.Threshold = Threshold;
    return SpecDeps(*Deps, Opts, evidence(Collected));
  }
};

TEST(SpecDepsClassify, IntraIterationAndNonCandidateEdgesAreMust) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  // Def reaches the use without crossing the back edge.
  EXPECT_EQ(SD.classifyRegEdge(F.AddI, F.Cmp), DepClass::Must);
  // Producer outside every loop containing the consumer.
  EXPECT_EQ(SD.classifyRegEdge(F.EntryMov, F.Load), DepClass::Must);
  // The consumer does not read the def's register at all.
  EXPECT_EQ(SD.classifyRegEdge(F.Add, F.Cmp), DepClass::Must);
  // Same-block forward store->load flows on every execution.
  EXPECT_EQ(SD.classifyMemEdge(F.Store, F.Load2), DepClass::Must);
}

TEST(SpecDepsClassify, CarriedEdgesSplitHotColdOnThreshold) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  // 1 activation of 100 trips <= 0.05 * 100: cold.
  EXPECT_EQ(SD.classifyRegEdge(F.AddI, F.Load), DepClass::Cold);
  // 99 of 100: hot.
  EXPECT_EQ(SD.classifyRegEdge(F.Add, F.Add), DepClass::Hot);
  // Threshold 0 prunes only never-observed edges.
  EXPECT_EQ(F.specDeps(true, 0.0).classifyRegEdge(F.AddI, F.Load),
            DepClass::Hot);
  // Threshold 1 makes every covered carried edge cold.
  EXPECT_EQ(F.specDeps(true, 1.0).classifyRegEdge(F.Add, F.Add),
            DepClass::Cold);
}

TEST(SpecDepsClassify, UncoveredConsumersAndMissingEvidenceStayHot) {
  LoopFixture F;
  // Zero trips (consumer never executed): hot regardless of threshold.
  std::vector<InstCountRow> Saved = F.InstCounts;
  F.InstCounts.assign(1, {});
  EXPECT_EQ(F.specDeps(true, 1.0).classifyRegEdge(F.AddI, F.Load),
            DepClass::Hot);
  F.InstCounts = Saved;
  // Profile predates evidence collection: the classifier is disabled.
  SpecDeps Legacy = F.specDeps(true, 1.0, /*Collected=*/false);
  EXPECT_FALSE(Legacy.enabled());
  EXPECT_EQ(Legacy.classifyRegEdge(F.AddI, F.Load), DepClass::Hot);
  // Switched off: may-edges stay hot, nothing prunes.
  SpecDeps Off = F.specDeps(false, 1.0);
  EXPECT_FALSE(Off.enabled());
  EXPECT_FALSE(Off.shouldPrune(DepKind::Register, F.AddI, F.Load));
}

TEST(SpecDepsClassify, ShouldPruneFillsTheEvidenceRecord) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  SpecDrop D;
  ASSERT_TRUE(SD.shouldPrune(DepKind::Register, F.AddI, F.Load, &D));
  EXPECT_EQ(D.Kind, DepKind::Register);
  EXPECT_EQ(D.From, F.sid(F.AddI));
  EXPECT_EQ(D.To, F.sid(F.Load));
  EXPECT_EQ(D.Observed, 1u);
  EXPECT_EQ(D.Trips, 100u);
  EXPECT_EQ(D.Threshold, 0.05);
  EXPECT_FALSE(SD.shouldPrune(DepKind::Memory, F.Store, F.Load2));
}

//===----------------------------------------------------------------------===//
// Pipeline determinism and the off-switch differential
//===----------------------------------------------------------------------===//

struct AdaptResult {
  std::string ProgramText;
  std::string SpecJson; ///< renderJSON over the speculation.* diagnostics.
  size_t Drops = 0;
  unsigned VerifyErrors = 0;
};

AdaptResult adaptWith(const ProfiledWorkload &PW, core::ToolOptions Opts) {
  Opts.FatalOnVerifyError = false;
  core::PostPassTool Tool(PW.P, PW.PD, Opts);
  core::AdaptationReport Rep;
  ir::Program Enhanced = Tool.adapt(&Rep);

  AdaptResult R;
  R.ProgramText = Enhanced.str();
  verify::DiagnosticEngine SpecDE;
  for (const verify::Diagnostic &D : Rep.VerifyDiags)
    if (D.CheckId.rfind("speculation.", 0) == 0)
      SpecDE.report(D);
  R.SpecJson = verify::renderJSON(SpecDE, &Enhanced);
  for (const verify::SliceManifest &SM : Rep.Manifest.Slices)
    R.Drops += SM.SpecDrops.size();
  R.VerifyErrors = Rep.VerifyErrors;
  return R;
}

core::ToolOptions specOnOptions(unsigned Jobs = 1) {
  core::ToolOptions Opts;
  Opts.EnableSpecDeps = true;
  Opts.SpecDepThreshold = 0.05;
  Opts.Jobs = Jobs;
  return Opts;
}

// Adapted-program text and the speculation.* JSON must not depend on the
// worker count: the dropped-edge set (and hence its audit trail) is part
// of the tool's determinism contract.
TEST(SpecDepsPipeline, SpecOnAdaptationIsJobsInvariant) {
  for (const Workload &W : {makeMcf(), makeVpr(), makeEm3d()}) {
    SCOPED_TRACE(W.Name);
    const ProfiledWorkload &PW = profiledWorkload(W);
    AdaptResult Serial = adaptWith(PW, specOnOptions(1));
    EXPECT_EQ(Serial.VerifyErrors, 0u);
    for (unsigned Jobs : {4u, 8u}) {
      AdaptResult Par = adaptWith(PW, specOnOptions(Jobs));
      EXPECT_EQ(Serial.ProgramText, Par.ProgramText)
          << "binary differs at jobs=" << Jobs;
      EXPECT_EQ(Serial.SpecJson, Par.SpecJson)
          << "speculation.* JSON differs at jobs=" << Jobs;
      EXPECT_EQ(Par.VerifyErrors, 0u);
      EXPECT_EQ(Serial.Drops, Par.Drops);
    }
  }
}

// mcf and vpr carry the rare pointer-resync shape the pass exists for:
// with the threshold at 0.05 their slices must actually drop edges, and
// every drop must surface in the speculation.* audit trail.
TEST(SpecDepsPipeline, ResyncWorkloadsDropEdgesWithAuditTrail) {
  for (const Workload &W : {makeMcf(), makeVpr()}) {
    SCOPED_TRACE(W.Name);
    AdaptResult R = adaptWith(profiledWorkload(W), specOnOptions());
    EXPECT_EQ(R.VerifyErrors, 0u);
    EXPECT_GE(R.Drops, 1u);
    // One dropped-edge note per manifest drop reaches the JSON.
    size_t Notes = 0, Pos = 0;
    while ((Pos = R.SpecJson.find("speculation.dropped-edge", Pos)) !=
           std::string::npos) {
      ++Notes;
      Pos += 1;
    }
    EXPECT_EQ(Notes, R.Drops);
  }
}

// The off arm is the pre-speculation pipeline bit for bit: default
// options and EnableSpecDeps=false (at any threshold) must agree exactly,
// record no drops, and emit no speculation.* diagnostics.
TEST(SpecDepsPipeline, SpecOffIsBitIdenticalToDefaultPipeline) {
  for (const Workload &W : paperSuite()) {
    SCOPED_TRACE(W.Name);
    const ProfiledWorkload &PW = profiledWorkload(W);
    AdaptResult Default = adaptWith(PW, core::ToolOptions());
    core::ToolOptions Off;
    Off.EnableSpecDeps = false;
    Off.SpecDepThreshold = 0.5; // Inert while the switch is off.
    AdaptResult OffR = adaptWith(PW, Off);
    EXPECT_EQ(Default.ProgramText, OffR.ProgramText);
    EXPECT_EQ(Default.Drops, 0u);
    EXPECT_EQ(OffR.Drops, 0u);
    EXPECT_EQ(OffR.SpecJson.find("speculation."), std::string::npos);
    EXPECT_EQ(OffR.VerifyErrors, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Verification negative fixtures
//===----------------------------------------------------------------------===//

/// Runs only the speculation audit pass over \p F's program with a
/// single-drop manifest.
verify::DiagnosticEngine auditDrop(const LoopFixture &F, SpecDrop D,
                                   const SpecDeps *SD) {
  verify::AdaptationManifest M;
  verify::SliceManifest SM;
  SM.Func = 0;
  SM.SpecDrops.push_back(D);
  M.Slices.push_back(SM);
  verify::VerifyContext Ctx{F.P, &F.P, &M};
  Ctx.Spec = SD;
  verify::DiagnosticEngine DE;
  verify::createSpeculationPass()->run(Ctx, DE);
  return DE;
}

std::string firstCheckId(const verify::DiagnosticEngine &DE) {
  return DE.diagnostics().empty() ? std::string()
                                  : DE.diagnostics().front().CheckId;
}

TEST(SpeculationPass, SupportedDropIsANote) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  SpecDrop D;
  ASSERT_TRUE(SD.shouldPrune(DepKind::Register, F.AddI, F.Load, &D));
  verify::DiagnosticEngine DE = auditDrop(F, D, &SD);
  EXPECT_EQ(DE.errorCount(), 0u);
  ASSERT_EQ(DE.diagnostics().size(), 1u);
  EXPECT_EQ(firstCheckId(DE), "speculation.dropped-edge");
}

TEST(SpeculationPass, ZeroCoverageDropIsFatal) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  SpecDrop D;
  D.Kind = DepKind::Register;
  D.From = F.sid(F.AddI);
  D.To = F.sid(F.Load);
  D.Observed = 0;
  D.Trips = 0; // No evidence either way: never a supported drop.
  D.Threshold = 0.05;
  verify::DiagnosticEngine DE = auditDrop(F, D, &SD);
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(firstCheckId(DE), "speculation.unsupported-drop");
}

TEST(SpeculationPass, MustDepDropIsFatal) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  SpecDrop D;
  D.Kind = DepKind::Register;
  D.From = F.sid(F.AddI);
  D.To = F.sid(F.Cmp); // Intra-iteration flow: re-classifies as must.
  D.Observed = 1;
  D.Trips = 100;
  D.Threshold = 0.05;
  verify::DiagnosticEngine DE = auditDrop(F, D, &SD);
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(firstCheckId(DE), "speculation.unsupported-drop");
}

TEST(SpeculationPass, EvidenceMismatchIsFatal) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  SpecDrop D;
  ASSERT_TRUE(SD.shouldPrune(DepKind::Register, F.AddI, F.Load, &D));
  D.Observed += 1; // Recorded evidence no longer matches the profile.
  verify::DiagnosticEngine DE = auditDrop(F, D, &SD);
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(firstCheckId(DE), "speculation.evidence-mismatch");
}

TEST(SpeculationPass, DropsWithoutAClassifierAreFatal) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  SpecDrop D;
  ASSERT_TRUE(SD.shouldPrune(DepKind::Register, F.AddI, F.Load, &D));
  // No classifier at all.
  verify::DiagnosticEngine DE = auditDrop(F, D, nullptr);
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(firstCheckId(DE), "speculation.unsupported-drop");
  // Classifier present but disabled (e.g. a legacy profile).
  SpecDeps Legacy = F.specDeps(true, 0.05, /*Collected=*/false);
  DE = auditDrop(F, D, &Legacy);
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(firstCheckId(DE), "speculation.unsupported-drop");
}

TEST(SpeculationPass, UnknownInstructionDropIsFatal) {
  LoopFixture F;
  SpecDeps SD = F.specDeps(true, 0.05);
  SpecDrop D;
  D.Kind = DepKind::Register;
  D.From = makeStaticId(0, 9999); // Not an instruction of the program.
  D.To = F.sid(F.Load);
  D.Observed = 1;
  D.Trips = 100;
  D.Threshold = 0.05;
  verify::DiagnosticEngine DE = auditDrop(F, D, &SD);
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(firstCheckId(DE), "speculation.unsupported-drop");
}

} // namespace
