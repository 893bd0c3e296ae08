//===- tests/verify_test.cpp - Verification pipeline tests ------------------===//
//
// Exercises the src/verify/ diagnostics engine and check pipeline:
//
//   * diagnostic construction and the text/JSON renderers;
//   * every registered workload's automatic adaptation verifies with zero
//     error diagnostics (translation validation included);
//   * the hand-adapted binaries pass the standalone pipeline;
//   * five hand-corrupted adaptations, and one adaptation checked against
//     a corrupted original, are each rejected with exactly the expected
//     check id at the expected location.
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "ir/Parser.h"
#include "verify/PassManager.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::ir;

namespace {

struct AdaptedWorkload {
  Program Orig, Enhanced;
  core::AdaptationReport Rep;
};

AdaptedWorkload adaptWorkload(const workloads::Workload &W) {
  AdaptedWorkload A;
  A.Orig = W.Build();
  profile::ProfileData PD = core::profileProgram(A.Orig, W.BuildMemory);
  core::ToolOptions Opts;
  Opts.FatalOnVerifyError = false; // Findings land in Rep.VerifyDiags.
  core::PostPassTool Tool(A.Orig, PD, Opts);
  A.Enhanced = Tool.adapt(&A.Rep);
  return A;
}

verify::DiagnosticEngine
runPipeline(const Program &P, const Program *Orig = nullptr,
            const verify::AdaptationManifest *M = nullptr) {
  verify::VerifyContext Ctx{P, Orig, M};
  return verify::runStandardPipeline(Ctx);
}

std::vector<verify::Diagnostic> errorsOf(const verify::DiagnosticEngine &DE) {
  return DE.bySeverity(verify::Severity::Error);
}

std::string renderAll(const std::vector<verify::Diagnostic> &Ds,
                      const Program &P) {
  std::string Out;
  for (const verify::Diagnostic &D : Ds)
    Out += verify::renderText(D, &P) + "\n";
  return Out;
}

/// A function-unique instruction id for hand-inserted corruption (the
/// structural dup-id check would otherwise fire on Id collisions).
uint32_t freshId(const Function &F) {
  uint32_t Max = 0;
  for (uint32_t B = 0; B < F.numBlocks(); ++B)
    for (const Instruction &I : F.block(B).Insts)
      Max = std::max(Max, I.Id);
  return Max + 1;
}

/// The arc kernel's adaptation plus the block indices the negative
/// fixtures corrupt: the chaining header, its spawn block, the fallthrough
/// body and the stub.
struct ArcFixture {
  AdaptedWorkload A;
  uint32_t Stub = 0, Hdr = 0, SpawnBlk = 0, Body = 0;

  ArcFixture() : A(adaptWorkload(workloads::makeArcKernel())) {
    const Function &F = A.Enhanced.func(0);
    EXPECT_EQ(A.Rep.Manifest.Slices.size(), 1u);
    Hdr = A.Rep.Manifest.Slices.front().HeaderBlock;
    Stub = A.Rep.Manifest.Slices.front().StubBlock;
    EXPECT_EQ(F.block(Stub).Kind, BlockKind::Stub);
    // The header's trailing conditional branch targets the spawn block,
    // whose trailing jump targets the body.
    const Instruction &HdrBr = F.block(Hdr).Insts.back();
    EXPECT_EQ(HdrBr.Op, Opcode::Br);
    SpawnBlk = HdrBr.Target;
    EXPECT_EQ(F.block(SpawnBlk).Insts.front().Op, Opcode::Spawn);
    Body = F.block(SpawnBlk).Insts.back().Target;
  }

  verify::DiagnosticEngine verify() const {
    return runPipeline(A.Enhanced, &A.Orig, &A.Rep.Manifest);
  }
};

void expectSingleError(const verify::DiagnosticEngine &DE,
                       const Program &P, const std::string &CheckId,
                       uint32_t Func, uint32_t Block, uint32_t Inst) {
  std::vector<verify::Diagnostic> Errs = errorsOf(DE);
  ASSERT_EQ(Errs.size(), 1u) << renderAll(Errs, P);
  EXPECT_EQ(Errs[0].CheckId, CheckId) << renderAll(Errs, P);
  EXPECT_EQ(Errs[0].Loc.Func, Func);
  EXPECT_EQ(Errs[0].Loc.Block, Block);
  EXPECT_EQ(Errs[0].Loc.Inst, Inst);
}

} // namespace

//===----------------------------------------------------------------------===//
// Diagnostics engine and renderers
//===----------------------------------------------------------------------===//

TEST(DiagnosticEngine, CountsAndFiltersBySeverity) {
  verify::DiagnosticEngine DE;
  DE.error("slice.livein", {1, 5, 2}, "r7 read before staged");
  DE.warning("lint.dead-slice", {1, 5, 3}, "dead");
  DE.warningInBlock("lint.bundle", 0, 2, "over-full bundle");
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(DE.warningCount(), 2u);
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.bySeverity(verify::Severity::Error).size(), 1u);
  EXPECT_EQ(DE.bySeverity(verify::Severity::Warning).size(), 2u);
  EXPECT_EQ(DE.bySeverity(verify::Severity::Note).size(), 0u);
}

TEST(DiagnosticEngine, RenderTextFormatsLocationAndHint) {
  verify::Diagnostic D;
  D.Sev = verify::Severity::Error;
  D.CheckId = "slice.livein";
  D.Kind = verify::LocKind::Inst;
  D.Loc = {1, 5, 2};
  D.Message = "r7 read before staged";
  D.FixHint = "stage r7 in the stub";
  EXPECT_EQ(verify::renderText(D),
            "error[slice.livein] fn1:bb5:2: r7 read before staged "
            "[hint: stage r7 in the stub]");

  verify::Diagnostic Prog;
  Prog.Sev = verify::Severity::Warning;
  Prog.CheckId = "tv.func-count";
  Prog.Kind = verify::LocKind::Program;
  Prog.Message = "function count changed";
  EXPECT_EQ(verify::renderText(Prog),
            "warning[tv.func-count] <program>: function count changed");
}

TEST(DiagnosticEngine, RenderJSONEscapesAndCounts) {
  verify::DiagnosticEngine DE;
  DE.error("stub.clobber", {0, 3, 1}, "writes \"r1\"");
  std::string J = verify::renderJSON(DE);
  EXPECT_NE(J.find("\"errors\":1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"check\":\"stub.clobber\""), std::string::npos) << J;
  EXPECT_NE(J.find("writes \\\"r1\\\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"block\":3"), std::string::npos) << J;
  EXPECT_NE(J.find("\"inst\":1"), std::string::npos) << J;
}

TEST(PassManagerTest, StandardPipelineHasExpectedOrder) {
  verify::PassManager PM = verify::PassManager::standardPipeline();
  std::vector<std::string> Names = PM.passNames();
  ASSERT_EQ(Names.size(), 8u);
  EXPECT_EQ(Names.front(), "structural");
  EXPECT_EQ(Names[5], "speculation");
  EXPECT_EQ(Names[6], "feedback");
  EXPECT_EQ(Names.back(), "stream");
}

TEST(VerifyLint, OverfullBundlesNameTheMachinesUnitCounts) {
  // bb0's one bundle holds 3 loads and bb1's first bundle 3 FP ops; the
  // Table 1 machine has 2 memory ports and 2 FP units.
  Program P;
  std::string Err;
  ASSERT_TRUE(parseProgram("function main (fn0) [entry]:\n"
                           "  bb0 <mem>:\n"
                           "    ld8 r1 = [r10 + 0]\n"
                           "    ld8 r2 = [r10 + 8]\n"
                           "    ld8 r3 = [r10 + 16]\n"
                           "  bb1 <fp>:\n"
                           "    fadd f1 = f2, f3\n"
                           "    fmul f4 = f2, f3\n"
                           "    fadd f5 = f2, f3\n"
                           "    halt\n",
                           P, Err))
      << Err;
  verify::DiagnosticEngine DE = runPipeline(P);
  std::vector<verify::Diagnostic> Lints;
  for (const verify::Diagnostic &D : DE.diagnostics())
    if (D.CheckId == "lint.bundle")
      Lints.push_back(D);
  ASSERT_EQ(Lints.size(), 2u) << renderAll(Lints, P);
  EXPECT_EQ(Lints[0].Sev, verify::Severity::Warning);
  EXPECT_EQ(Lints[0].Loc.Block, 0u);
  EXPECT_NE(Lints[0].Message.find(
                "bundle needs 3 memory ports but the machine has 2"),
            std::string::npos)
      << Lints[0].Message;
  EXPECT_EQ(Lints[1].Loc.Block, 1u);
  EXPECT_EQ(Lints[1].Loc.Inst, 0u);
  EXPECT_NE(
      Lints[1].Message.find("bundle needs 3 FP units but the machine has 2"),
      std::string::npos)
      << Lints[1].Message;
}

//===----------------------------------------------------------------------===//
// Positive: all registered workloads' adaptations verify clean
//===----------------------------------------------------------------------===//

TEST(VerifyPipeline, PaperSuiteAdaptationsHaveZeroErrors) {
  for (const workloads::Workload &W : workloads::paperSuite()) {
    AdaptedWorkload A = adaptWorkload(W);
    EXPECT_EQ(A.Rep.VerifyErrors, 0u)
        << W.Name << ":\n"
        << renderAll(A.Rep.VerifyDiags, A.Enhanced);
  }
}

TEST(VerifyPipeline, KernelAdaptationsHaveZeroErrors) {
  for (const workloads::Workload &W :
       {workloads::makeArcKernel(), workloads::makePhasedKernel()}) {
    AdaptedWorkload A = adaptWorkload(W);
    EXPECT_EQ(A.Rep.VerifyErrors, 0u)
        << W.Name << ":\n"
        << renderAll(A.Rep.VerifyDiags, A.Enhanced);
  }
}

TEST(VerifyPipeline, HandAdaptedBinariesPassStandalonePipeline) {
  for (auto Mk :
       {workloads::makeMcfHandAdapted, workloads::makeHealthHandAdapted}) {
    workloads::Workload W = Mk();
    Program P = W.Build();
    verify::DiagnosticEngine DE = runPipeline(P);
    EXPECT_EQ(DE.errorCount(), 0u)
        << W.Name << ":\n"
        << renderAll(errorsOf(DE), P);
  }
}

//===----------------------------------------------------------------------===//
// Negative: hand-corrupted adaptations are rejected with pinned check ids
//===----------------------------------------------------------------------===//

TEST(VerifyNegative, StoreInSliceIsRejected) {
  ArcFixture FX;
  Function &F = FX.A.Enhanced.func(0);
  // Smuggle a store into the slice body: breaks Section 2's no-store
  // invariant (a speculative thread must never change architectural state).
  Instruction St;
  St.Op = Opcode::Store;
  St.Src1 = ireg(1);
  St.Src2 = ireg(4);
  St.Id = freshId(F);
  F.block(FX.Body).Insts.insert(F.block(FX.Body).Insts.begin(), St);

  expectSingleError(FX.verify(), FX.A.Enhanced, "structural.slice-store",
                    0, FX.Body, 0);
}

TEST(VerifyNegative, MissingLiveInStagingIsRejected) {
  ArcFixture FX;
  Function &F = FX.A.Enhanced.func(0);
  // Drop the stub's first lib.st: the spawned header still lib.lds that
  // slot, so the speculative thread would read a stale/zero value.
  std::vector<Instruction> &Stub = F.block(FX.Stub).Insts;
  ASSERT_EQ(Stub.front().Op, Opcode::CopyToLIB);
  Stub.erase(Stub.begin());
  uint32_t SpawnIdx = 0;
  while (Stub[SpawnIdx].Op != Opcode::Spawn)
    ++SpawnIdx;

  expectSingleError(FX.verify(), FX.A.Enhanced, "slice.livein-staging",
                    0, FX.Stub, SpawnIdx);
}

TEST(VerifyNegative, SpawnToNonSliceBlockIsRejected) {
  ArcFixture FX;
  Function &F = FX.A.Enhanced.func(0);
  // Retarget the stub's spawn at a main-thread body block: speculative
  // execution would run (and re-run) committed program code.
  std::vector<Instruction> &Stub = F.block(FX.Stub).Insts;
  uint32_t SpawnIdx = 0;
  while (Stub[SpawnIdx].Op != Opcode::Spawn)
    ++SpawnIdx;
  Stub[SpawnIdx].Target = 0; // The function entry block.

  expectSingleError(FX.verify(), FX.A.Enhanced, "structural.spawn-target",
                    0, FX.Stub, SpawnIdx);
}

TEST(VerifyNegative, StubClobberIsRejected) {
  ArcFixture FX;
  Function &F = FX.A.Enhanced.func(0);
  // A stub runs *in* the main thread between trigger and rfi; writing any
  // architectural register corrupts the committed program.
  Instruction Add;
  Add.Op = Opcode::AddI;
  Add.Dst = ireg(1);
  Add.Src1 = ireg(1);
  Add.Imm = 1;
  Add.Id = freshId(F);
  F.block(FX.Stub).Insts.insert(F.block(FX.Stub).Insts.begin(), Add);

  expectSingleError(FX.verify(), FX.A.Enhanced, "stub.clobber",
                    0, FX.Stub, 0);
}

TEST(VerifyNegative, UnboundedChainIsRejected) {
  ArcFixture FX;
  Function &F = FX.A.Enhanced.func(0);
  // Make the header re-spawn unconditionally: the chain loses its only
  // termination gate (the loop latch predicate) and would spawn forever.
  Instruction &HdrBr = F.block(FX.Hdr).Insts.back();
  ASSERT_EQ(HdrBr.Op, Opcode::Br);
  HdrBr.Op = Opcode::Jmp;
  HdrBr.Src1 = Reg();

  expectSingleError(FX.verify(), FX.A.Enhanced, "slice.chain-budget",
                    0, FX.SpawnBlk, 0);
}

TEST(VerifyNegative, IllFormedOriginalIsRejected) {
  ArcFixture FX;
  Function &F = FX.A.Orig.func(0);
  // Corrupt the *original* the adaptation is validated against: a write
  // to the hardwired r0. Translation validation against it would be
  // meaningless, so pass 1 reports it once and the later passes skip.
  Instruction Mov;
  Mov.Op = Opcode::MovI;
  Mov.Dst = ireg(0);
  Mov.Imm = 5;
  Mov.Id = freshId(F);
  F.block(0).Insts.insert(F.block(0).Insts.begin(), Mov);

  verify::DiagnosticEngine DE = FX.verify();
  expectSingleError(DE, FX.A.Enhanced, "structural.orig-ill-formed", 0, 0,
                    0);
  EXPECT_EQ(DE.diagnostics().front().Kind, verify::LocKind::Program);
}
