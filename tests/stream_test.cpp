//===- tests/stream_test.cpp - Stream-descriptor pipeline tests -----------===//
//
// The stream-descriptor tentpole, end to end:
//
//  * analysis::classifyStream on hand-built affine / pointer-chase /
//    indirect slices, pinning every descriptor field, plus the
//    irregular-falls-back contract;
//  * the three indirect workloads (hashjoin, pagerank, oahash) compute
//    their analytically pinned checksums, baseline and adapted;
//  * `ssp-adapt --streams` attaches Indirect descriptors to them, is
//    byte-identical for any --jobs value, and off-by-default changes
//    nothing (no descriptors, identical text, bit-identical simulation
//    whatever the engine knob says);
//  * the simulator's stream engine serves triggers without spawning,
//    preserves checksums, and the descriptors survive a text round-trip
//    and a move of the linked Program;
//  * the `stream.*` verify pass accepts a real adaptation (with audit
//    notes) and rejects tampered kinds, strides, offsets, and descriptor
//    presence/absence mismatches.
//
//===----------------------------------------------------------------------===//

#include "analysis/StreamPatterns.h"
#include "core/PostPassTool.h"
#include "ir/Parser.h"
#include "sim/Run.h"
#include "verify/PassManager.h"
#include "workloads/Workload.h"

#include "SimStatsEq.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Classifier unit tests
//===----------------------------------------------------------------------===//

Instruction mk(Opcode Op, Reg Dst, Reg Src1, int64_t Imm) {
  Instruction I;
  I.Op = Op;
  I.Dst = Dst;
  I.Src1 = Src1;
  I.Imm = Imm;
  return I;
}

analysis::StreamClassifyInput affineInput() {
  // Arc-kernel shape: the running pointer r1 advances by 64 per link and
  // the slice prefetches (r1, 8).
  analysis::StreamClassifyInput In;
  In.Critical.push_back(mk(Opcode::AddI, ireg(1), ireg(1), 64));
  In.Targets = {{ireg(1), 8}};
  In.Depth = 16;
  return In;
}

TEST(StreamClassifier, AffineRunningPointer) {
  auto D = analysis::classifyStream(affineInput());
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Kind, StreamKind::Affine);
  EXPECT_EQ(D->AddrBase, ireg(1));
  EXPECT_FALSE(D->AddrInd.isValid());
  // The prefetch address after one critical step: r1 + 64 + 8.
  EXPECT_EQ(D->AddrAdd, 72);
  EXPECT_EQ(D->Stride, 64);
  EXPECT_EQ(D->Depth, 16u);
  EXPECT_EQ(D->PrefetchOffsets, (std::vector<int64_t>{0}));
}

TEST(StreamClassifier, AffineMultipleOffsets) {
  auto In = affineInput();
  In.Targets = {{ireg(1), 8}, {ireg(1), 24}};
  auto D = analysis::classifyStream(In);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Kind, StreamKind::Affine);
  EXPECT_EQ(D->PrefetchOffsets, (std::vector<int64_t>{0, 16}));
}

TEST(StreamClassifier, PointerChase) {
  // p = load(p + 16): one link per step; prefetch the next node's payload
  // words at +0 and +8.
  analysis::StreamClassifyInput In;
  In.Critical.push_back(mk(Opcode::Load, ireg(2), ireg(2), 16));
  In.Targets = {{ireg(2), 0}, {ireg(2), 8}};
  In.Depth = 8;
  auto D = analysis::classifyStream(In);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Kind, StreamKind::Chase);
  EXPECT_EQ(D->AddrBase, ireg(2));
  EXPECT_EQ(D->ChaseOff, 16);
  EXPECT_EQ(D->PrefetchOffsets, (std::vector<int64_t>{0, 8}));
  EXPECT_EQ(D->Depth, 8u);
}

analysis::StreamClassifyInput indirectInput() {
  // Hash-probe shape: k = keys[i]; ea = Base + ((k*7) & 0x3FFFF) << 4;
  // prefetch (ea, 0) and (ea, 8). The index pointer r1 steps by 8.
  analysis::StreamClassifyInput In;
  In.Critical.push_back(mk(Opcode::AddI, ireg(1), ireg(1), 8));
  In.Body.push_back(mk(Opcode::Load, ireg(4), ireg(1), 0));
  In.Body.push_back(mk(Opcode::MulI, ireg(5), ireg(4), 7));
  In.Body.push_back(mk(Opcode::AndI, ireg(5), ireg(5), 0x3FFFF));
  In.Body.push_back(mk(Opcode::ShlI, ireg(5), ireg(5), 4));
  In.Body.push_back(mk(Opcode::AddI, ireg(6), ireg(5), 0x4000000));
  In.Targets = {{ireg(6), 0}, {ireg(6), 8}};
  In.Depth = 32;
  return In;
}

TEST(StreamClassifier, IndirectGather) {
  auto D = analysis::classifyStream(indirectInput());
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Kind, StreamKind::Indirect);
  EXPECT_EQ(D->AddrBase, ireg(1));
  // The index load runs after the critical step: keys[i+1] is at r1 + 8.
  EXPECT_EQ(D->AddrAdd, 8);
  EXPECT_EQ(D->Stride, 8);
  EXPECT_FALSE(D->ValBase.isValid());
  EXPECT_EQ(D->ValMul, 7);
  EXPECT_EQ(D->ValMask, 0x3FFFFull);
  EXPECT_EQ(D->ValShift, 4);
  EXPECT_EQ(D->ValAdd, 0x4000000);
  EXPECT_EQ(D->PrefetchOffsets, (std::vector<int64_t>{0, 8}));
  EXPECT_FALSE(D->PrefetchIndex);
}

TEST(StreamClassifier, IndirectWithIndexPrefetch) {
  // The index stream's own element is also a target: the descriptor must
  // record an index prefetch rather than losing coverage.
  auto In = indirectInput();
  In.Targets = {{ireg(1), 0}, {ireg(6), 0}};
  auto D = analysis::classifyStream(In);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Kind, StreamKind::Indirect);
  EXPECT_TRUE(D->PrefetchIndex);
  EXPECT_EQ(D->IdxPrefetchOffsets, (std::vector<int64_t>{0}));
  EXPECT_EQ(D->PrefetchOffsets, (std::vector<int64_t>{0}));
}

TEST(StreamClassifier, IrregularFallsBack) {
  // A register-register multiply of a loaded value has no descriptor
  // form; classification must fall back (full p-slice replay).
  auto In = indirectInput();
  Instruction Sq;
  Sq.Op = Opcode::Mul;
  Sq.Dst = ireg(6);
  Sq.Src1 = ireg(4);
  Sq.Src2 = ireg(4);
  In.Body.push_back(Sq);
  EXPECT_FALSE(analysis::classifyStream(In).has_value());
}

TEST(StreamClassifier, EmptyAndZeroDepthFallBack) {
  analysis::StreamClassifyInput In;
  EXPECT_FALSE(analysis::classifyStream(In).has_value());
  In = affineInput();
  In.Depth = 0;
  EXPECT_FALSE(analysis::classifyStream(In).has_value());
}

//===----------------------------------------------------------------------===//
// Workload + adaptation fixtures
//===----------------------------------------------------------------------===//

struct StreamSetup {
  Workload W;
  ir::Program Orig;
  profile::ProfileData PD;

  explicit StreamSetup(Workload Wl) : W(std::move(Wl)), Orig(W.Build()) {
    PD = core::profileProgram(Orig, W.BuildMemory);
  }

  ir::Program adapt(bool Streams, unsigned Jobs = 1,
                    core::AdaptationReport *Rep = nullptr) {
    core::ToolOptions Opts;
    Opts.EnableStreams = Streams;
    Opts.Jobs = Jobs;
    return core::PostPassTool(Orig, PD, Opts).adapt(Rep);
  }

  sim::SimStats run(const ir::Program &P, sim::MachineConfig Cfg) {
    sim::RunOutcome Out =
        sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory, Cfg);
    EXPECT_TRUE(Out.checksumOk()) << W.Name;
    return Out.Stats;
  }
};

TEST(StreamWorkloads, BaselineChecksums) {
  for (const Workload &W : streamSuite()) {
    StreamSetup S(W);
    S.run(S.Orig, sim::MachineConfig::inOrder());
  }
}

TEST(StreamWorkloads, AdaptedChecksumsWithAndWithoutStreams) {
  for (const Workload &W : streamSuite()) {
    StreamSetup S(W);
    S.run(S.adapt(false), sim::MachineConfig::inOrder());
    S.run(S.adapt(true), sim::MachineConfig::inOrder());
  }
}

TEST(StreamAdapt, IndirectDescriptorsAttached) {
  for (const Workload &W : streamSuite()) {
    StreamSetup S(W);
    core::AdaptationReport Rep;
    ir::Program E = S.adapt(true, 1, &Rep);
    ASSERT_FALSE(E.streams().empty()) << W.Name;
    unsigned ManifestStreams = 0;
    for (const verify::SliceManifest &SM : Rep.Manifest.Slices)
      ManifestStreams += SM.HasStream;
    EXPECT_EQ(ManifestStreams, E.streams().size()) << W.Name;
    for (const StreamDescriptor &D : E.streams()) {
      EXPECT_EQ(D.Kind, StreamKind::Indirect) << W.Name;
      EXPECT_EQ(D.Stride, 8) << W.Name;
      EXPECT_GT(D.Depth, 0u) << W.Name;
    }
  }
}

TEST(StreamAdapt, OffByDefaultAttachesNothing) {
  StreamSetup S(makeHashJoin());
  core::ToolOptions Defaults;
  ir::Program DefaultAdapted =
      core::PostPassTool(S.Orig, S.PD, Defaults).adapt();
  ir::Program Off = S.adapt(false);
  EXPECT_TRUE(Off.streams().empty());
  EXPECT_EQ(DefaultAdapted.str(), Off.str());
  EXPECT_EQ(Off.str().find("stream "), std::string::npos);
}

TEST(StreamAdapt, ByteIdenticalForAnyJobsValue) {
  StreamSetup S(makePagerank());
  std::string J1 = S.adapt(true, 1).str();
  EXPECT_EQ(J1, S.adapt(true, 4).str());
  EXPECT_EQ(J1, S.adapt(true, 8).str());
  EXPECT_NE(J1.find("stream "), std::string::npos);
}

TEST(StreamAdapt, DescriptorsSurviveTextRoundTrip) {
  StreamSetup S(makeHashJoin());
  ir::Program E = S.adapt(true);
  ASSERT_FALSE(E.streams().empty());
  std::string Text = E.str();
  ir::Program Parsed;
  std::string Err;
  ASSERT_TRUE(ir::parseProgram(Text, Parsed, Err)) << Err;
  ASSERT_EQ(Parsed.streams().size(), E.streams().size());
  for (size_t I = 0; I < E.streams().size(); ++I)
    EXPECT_TRUE(Parsed.streams()[I] == E.streams()[I]);
  EXPECT_EQ(Parsed.str(), Text);
}

//===----------------------------------------------------------------------===//
// Simulator stream engine
//===----------------------------------------------------------------------===//

TEST(StreamEngine, ServesTriggersWithoutSpawning) {
  StreamSetup S(makeHashJoin());
  ir::Program E = S.adapt(true);
  sim::SimStats Stats = S.run(E, sim::MachineConfig::inOrder());
  EXPECT_GT(Stats.StreamActivations, 0u);
  EXPECT_GT(Stats.StreamSteps, Stats.StreamActivations);
}

TEST(StreamEngine, SimulationReadsOnlyTheLinkedImage) {
  // The entry address and the stream descriptors are copied at link time,
  // so moving the source Program after linking (into a vector that then
  // reallocates, freeing the object it was linked from) changes no
  // counter; the sanitized build catches any read through the old address.
  StreamSetup S(makeHashJoin());
  for (const sim::MachineConfig &Cfg :
       {sim::MachineConfig::inOrder(), sim::MachineConfig::outOfOrder()}) {
    ir::Program E = S.adapt(true);
    ASSERT_FALSE(E.streams().empty());
    sim::SimStats Expected = S.run(E, Cfg);
    std::vector<ir::Program> Moved;
    Moved.push_back(std::move(E));
    ir::LinkedProgram LP = ir::LinkedProgram::link(Moved.front());
    const ir::Program *LinkedFrom = &Moved.front();
    ASSERT_EQ(Moved.size(), Moved.capacity());
    Moved.emplace_back(); // Reallocates, destroying the linked-from object.
    ASSERT_NE(&Moved.front(), LinkedFrom);
    sim::RunOutcome Out = sim::runProgram(LP, S.W.BuildMemory, Cfg);
    EXPECT_TRUE(Out.checksumOk());
    EXPECT_GT(Out.Stats.StreamActivations, 0u);
    sim::expectStatsEqual(Expected, Out.Stats, "linked, then moved");
  }
}

TEST(StreamEngine, EngineKnobFallsBackToSlices) {
  // The same streamed binary must still be correct — and still prefetch —
  // with the engine disabled: the chk.c then takes the normal spawn path.
  StreamSetup S(makeHashJoin());
  ir::Program E = S.adapt(true);
  sim::MachineConfig Off = sim::MachineConfig::inOrder();
  Off.EnableStreamEngine = false;
  sim::SimStats Stats = S.run(E, Off);
  EXPECT_EQ(Stats.StreamActivations, 0u);
  EXPECT_GT(Stats.SpawnsSucceeded, 0u);
}

TEST(StreamEngine, NoDescriptorsMeansBitIdenticalStats) {
  // Off-by-default contract: on a binary without descriptors the engine
  // knob must not change one counter.
  StreamSetup S(makeOaHash());
  ir::Program E = S.adapt(false);
  sim::MachineConfig On = sim::MachineConfig::inOrder();
  sim::MachineConfig Off = sim::MachineConfig::inOrder();
  Off.EnableStreamEngine = false;
  sim::SimStats A = S.run(E, On);
  sim::SimStats B = S.run(E, Off);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.MainInsts, B.MainInsts);
  EXPECT_EQ(A.SpecInsts, B.SpecInsts);
  EXPECT_EQ(A.TriggersFired, B.TriggersFired);
  EXPECT_EQ(A.SpawnsSucceeded, B.SpawnsSucceeded);
  EXPECT_EQ(A.SpecPrefetches, B.SpecPrefetches);
  EXPECT_EQ(A.UsefulPrefetches, B.UsefulPrefetches);
  EXPECT_EQ(A.StreamActivations, 0u);
  EXPECT_EQ(B.StreamActivations, 0u);
}

TEST(StreamEngine, DescriptorExecutionBeatsSliceReplay) {
  // The structural win the tentpole claims: descriptor execution skips the
  // spawn exception, the context occupancy and the slice fetch/decode.
  // At least two of the three indirect workloads must run faster with the
  // engine than with full p-slice replay of the same streamed binary.
  unsigned Improved = 0;
  for (const Workload &W : streamSuite()) {
    StreamSetup S(W);
    ir::Program E = S.adapt(true);
    sim::MachineConfig On = sim::MachineConfig::inOrder();
    sim::MachineConfig Off = sim::MachineConfig::inOrder();
    Off.EnableStreamEngine = false;
    uint64_t CyclesOn = S.run(E, On).Cycles;
    uint64_t CyclesOff = S.run(E, Off).Cycles;
    Improved += CyclesOn < CyclesOff;
  }
  EXPECT_GE(Improved, 2u);
}

//===----------------------------------------------------------------------===//
// The stream.* verify pass
//===----------------------------------------------------------------------===//

unsigned countCheck(const verify::DiagnosticEngine &DE,
                    const std::string &Id, verify::Severity Sev) {
  unsigned N = 0;
  for (const verify::Diagnostic &D : DE.diagnostics())
    N += D.Sev == Sev && D.CheckId == Id;
  return N;
}

struct VerifiedStream {
  StreamSetup S{makeHashJoin()};
  core::AdaptationReport Rep;
  ir::Program Enhanced;

  VerifiedStream() { Enhanced = S.adapt(true, 1, &Rep); }

  verify::DiagnosticEngine audit(const ir::Program &P) {
    verify::VerifyContext Ctx{P, &S.Orig, &Rep.Manifest};
    return verify::runStandardPipeline(Ctx);
  }
};

TEST(StreamVerify, RealAdaptationAuditsCleanWithNotes) {
  VerifiedStream V;
  ASSERT_FALSE(V.Enhanced.streams().empty());
  verify::DiagnosticEngine DE = V.audit(V.Enhanced);
  EXPECT_EQ(DE.errorCount(), 0u) << renderTextAll(DE, &V.Enhanced);
  EXPECT_GE(countCheck(DE, "stream.descriptor", verify::Severity::Note),
            V.Enhanced.streams().size());
}

TEST(StreamVerify, StandaloneBinaryAuditsWithoutManifest) {
  VerifiedStream V;
  verify::VerifyContext Ctx{V.Enhanced};
  verify::DiagnosticEngine DE = verify::runStandardPipeline(Ctx);
  EXPECT_EQ(DE.errorCount(), 0u) << renderTextAll(DE, &V.Enhanced);
  EXPECT_GE(countCheck(DE, "stream.descriptor", verify::Severity::Note), 1u);
}

TEST(StreamVerify, WrongKindIsFatal) {
  VerifiedStream V;
  ir::Program Bad = V.Enhanced.clone();
  Bad.streams()[0].Kind = StreamKind::Chase;
  // Tamper the manifest copy identically so the binary<->manifest diff
  // stays quiet and the re-derivation check must catch it.
  for (verify::SliceManifest &SM : V.Rep.Manifest.Slices)
    if (SM.HasStream)
      SM.Stream.Kind = StreamKind::Chase;
  verify::DiagnosticEngine DE = V.audit(Bad);
  EXPECT_GE(countCheck(DE, "stream.wrong-kind", verify::Severity::Error), 1u)
      << renderTextAll(DE, &Bad);
}

TEST(StreamVerify, WrongStrideIsFatal) {
  VerifiedStream V;
  ir::Program Bad = V.Enhanced.clone();
  Bad.streams()[0].Stride += 8;
  for (verify::SliceManifest &SM : V.Rep.Manifest.Slices)
    if (SM.HasStream)
      SM.Stream.Stride += 8;
  verify::DiagnosticEngine DE = V.audit(Bad);
  EXPECT_GE(countCheck(DE, "stream.wrong-stride", verify::Severity::Error),
            1u)
      << renderTextAll(DE, &Bad);
}

TEST(StreamVerify, NonCoveringOffsetsAreFatal) {
  VerifiedStream V;
  ir::Program Bad = V.Enhanced.clone();
  Bad.streams()[0].PrefetchOffsets.push_back(128);
  for (verify::SliceManifest &SM : V.Rep.Manifest.Slices)
    if (SM.HasStream)
      SM.Stream.PrefetchOffsets.push_back(128);
  verify::DiagnosticEngine DE = V.audit(Bad);
  EXPECT_GE(countCheck(DE, "stream.non-covering", verify::Severity::Error),
            1u)
      << renderTextAll(DE, &Bad);
}

TEST(StreamVerify, DroppedDescriptorIsFatal) {
  VerifiedStream V;
  ir::Program Bad = V.Enhanced.clone();
  Bad.streams().clear();
  verify::DiagnosticEngine DE = V.audit(Bad);
  EXPECT_GE(
      countCheck(DE, "stream.missing-descriptor", verify::Severity::Error),
      1u)
      << renderTextAll(DE, &Bad);
}

TEST(StreamVerify, SmuggledDescriptorIsFatal) {
  VerifiedStream V;
  ir::Program Bad = V.Enhanced.clone();
  StreamDescriptor Extra = Bad.streams()[0];
  // Key it to a stub the manifest does not claim a stream for.
  Extra.StubBlock += 1;
  Bad.streams().push_back(Extra);
  verify::DiagnosticEngine DE = V.audit(Bad);
  EXPECT_GE(
      countCheck(DE, "stream.orphan-descriptor", verify::Severity::Error),
      1u)
      << renderTextAll(DE, &Bad);
}

} // namespace
