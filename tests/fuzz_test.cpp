//===- tests/fuzz_test.cpp - Randomized property tests ---------------------===//
//
// Generates random (but always-terminating, well-formed) programs and
// checks system-level invariants over them:
//
//   * the verifier accepts what the generator builds;
//   * functional execution, the in-order pipeline and the OOO pipeline
//     all compute the same architectural result;
//   * simulation is deterministic;
//   * the post-pass tool never produces an ill-formed or
//     result-changing binary, whatever the input program looks like;
//   * slicing and scheduling maintain their structural invariants.
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "sim/Run.h"
#include "support/RNG.h"
#include "verify/PassManager.h"
#include "workloads/Workload.h"

#include "StructuralCheck.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::ir;

namespace {

constexpr uint64_t ArrayBase = 0x800000;
constexpr unsigned ArrayWords = 4096; // Indices masked to stay in bounds.
constexpr uint64_t ResultAddr = workloads::ResultAddr;

/// Generates a random single-function program: an entry block, 2-4
/// loops (possibly one nested), each with random ALU work and masked
/// loads/stores into a fixed array, and a final checksum store. All loops
/// are counter-bounded, so every generated program terminates.
struct FuzzProgram {
  Program P;
  explicit FuzzProgram(uint64_t Seed) {
    RNG Rng(Seed);
    IRBuilder B(P);
    B.createFunction("fuzz");

    const Reg Base = ireg(16), Sum = ireg(2), Res = ireg(17);
    auto RandReg = [&] {
      return ireg(3 + unsigned(Rng.nextBelow(10))); // r3..r12.
    };

    uint32_t Entry = B.createBlock("entry");
    B.setInsertPoint(Entry);
    B.movI(Base, ArrayBase);
    B.movI(Sum, 0);
    for (unsigned I = 3; I <= 12; ++I)
      B.movI(ireg(I), int64_t(Rng.nextBelow(1000)));

    unsigned NumLoops = 2 + unsigned(Rng.nextBelow(3));
    unsigned NextCounter = 20, NextPred = 1;

    // Emits one counter-bounded loop; returns after creating its blocks.
    auto EmitLoop = [&](bool Nested) {
      const Reg Cnt = ireg(NextCounter++);
      const Reg Pred = preg(NextPred++);
      int64_t Trips = 8 + int64_t(Rng.nextBelow(Nested ? 8 : 40));
      // Preheader: the counter init must not trail the previous block's
      // branch (branches end blocks).
      uint32_t Pre = B.createBlock("preheader");
      B.setInsertPoint(Pre);
      B.movI(Cnt, Trips);
      uint32_t Body = B.createBlock("loop");
      B.setInsertPoint(Body);
      unsigned Ops = 3 + unsigned(Rng.nextBelow(8));
      for (unsigned I = 0; I < Ops; ++I) {
        Reg D = RandReg(), A = RandReg(), C = RandReg();
        switch (Rng.nextBelow(8)) {
        case 0:
          B.add(D, A, C);
          break;
        case 1:
          B.sub(D, A, C);
          break;
        case 2:
          B.xor_(D, A, C);
          break;
        case 3:
          B.addI(D, A, int64_t(Rng.nextBelow(512)));
          break;
        case 4:
        case 5: { // Masked load: addr = Base + (A & mask)*8.
          Reg Idx = ireg(13);
          B.andI(Idx, A, ArrayWords - 1);
          B.shlI(Idx, Idx, 3);
          B.add(Idx, Idx, Base);
          B.load(D, Idx, 0);
          break;
        }
        case 6: { // Masked store.
          Reg Idx = ireg(14);
          B.andI(Idx, A, ArrayWords - 1);
          B.shlI(Idx, Idx, 3);
          B.add(Idx, Idx, Base);
          B.store(Idx, 0, C);
          break;
        }
        case 7:
          B.add(Sum, Sum, A);
          break;
        }
      }
      B.addI(Cnt, Cnt, -1);
      B.cmpI(CondCode::GT, Pred, Cnt, 0);
      B.br(Pred, Body);
    };

    for (unsigned L = 0; L < NumLoops; ++L) {
      EmitLoop(false);
      // Occasionally nest a short loop right after (structurally a
      // sibling, which still exercises multi-loop region graphs).
      if (Rng.nextBool(0.3)) {
        uint32_t After = B.createBlock("between");
        B.setInsertPoint(After);
        B.add(Sum, Sum, RandReg());
        EmitLoop(true);
      }
    }

    uint32_t Exit = B.createBlock("exit");
    B.setInsertPoint(Exit);
    B.movI(Res, int64_t(ResultAddr));
    B.store(Res, 0, Sum);
    B.halt();
    P.setEntry(0);
  }

  /// No expected checksum: the functional run is the reference.
  static std::optional<uint64_t> buildMemory(mem::SimMemory &Mem) {
    for (unsigned I = 0; I < ArrayWords; ++I)
      Mem.write(ArrayBase + 8ull * I, I * 2654435761u % 9973);
    Mem.write(ResultAddr, 0);
    return std::nullopt;
  }
};

uint64_t runFunctional(const Program &P) {
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  FuzzProgram::buildMemory(Mem);
  profile::collectControlFlowProfile(LP, Mem);
  return Mem.read(ResultAddr);
}

sim::SimStats runTimed(const Program &P, sim::MachineConfig Cfg,
                       uint64_t &Result) {
  sim::RunOutcome Out =
      sim::runProgram(LinkedProgram::link(P), &FuzzProgram::buildMemory, Cfg);
  EXPECT_TRUE(Out.Result.has_value());
  Result = Out.Result.value_or(0);
  return Out.Stats;
}

class Fuzz : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(Fuzz, GeneratedProgramIsWellFormed) {
  FuzzProgram F(uint64_t(GetParam()) * 7919 + 11);
  EXPECT_TRUE(tests::wellFormed(F.P));
}

TEST_P(Fuzz, PipelinesAgreeWithFunctionalExecution) {
  FuzzProgram F(uint64_t(GetParam()) * 7919 + 11);
  uint64_t Functional = runFunctional(F.P);
  uint64_t IO = 0, OOO = 0;
  runTimed(F.P, sim::MachineConfig::inOrder(), IO);
  runTimed(F.P, sim::MachineConfig::outOfOrder(), OOO);
  EXPECT_EQ(IO, Functional);
  EXPECT_EQ(OOO, Functional);
}

TEST_P(Fuzz, SimulationIsDeterministic) {
  FuzzProgram F(uint64_t(GetParam()) * 7919 + 11);
  uint64_t R1 = 0, R2 = 0;
  sim::SimStats A = runTimed(F.P, sim::MachineConfig::inOrder(), R1);
  sim::SimStats B = runTimed(F.P, sim::MachineConfig::inOrder(), R2);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(R1, R2);
}

TEST_P(Fuzz, AdaptationIsSafeOnArbitraryPrograms) {
  FuzzProgram F(uint64_t(GetParam()) * 7919 + 11);
  profile::ProfileData PD =
      core::profileProgram(F.P, &FuzzProgram::buildMemory);
  core::PostPassTool Tool(F.P, PD);
  core::AdaptationReport Rep;
  Program Enhanced = Tool.adapt(&Rep);
  ASSERT_TRUE(tests::wellFormed(Enhanced));

  uint64_t Before = runFunctional(F.P);
  uint64_t IO = 0, OOO = 0;
  runTimed(Enhanced, sim::MachineConfig::inOrder(), IO);
  runTimed(Enhanced, sim::MachineConfig::outOfOrder(), OOO);
  EXPECT_EQ(IO, Before) << "adaptation changed program results (in-order)";
  EXPECT_EQ(OOO, Before) << "adaptation changed program results (OOO)";
}

TEST_P(Fuzz, ParserRoundTripsGeneratedPrograms) {
  FuzzProgram F(uint64_t(GetParam()) * 7919 + 11);
  std::string Text = F.P.str();
  Program Q;
  std::string Err;
  ASSERT_TRUE(parseProgram(Text, Q, Err)) << Err;
  EXPECT_EQ(Q.str(), Text);
}

TEST_P(Fuzz, VerifierAcceptsEveryParserAcceptedProgram) {
  // Parser -> verification-pipeline round trip: whatever program text the
  // parser accepts, the full check pipeline must process without crashing,
  // and generator/tool output must come back error-free. (The in-tool run
  // inside adapt() additionally checks the manifest and the original; this
  // covers the standalone ssp-verify path over parsed text.)
  FuzzProgram F(uint64_t(GetParam()) * 7919 + 11);
  Program Q;
  std::string Err;
  ASSERT_TRUE(parseProgram(F.P.str(), Q, Err)) << Err;
  verify::DiagnosticEngine DE =
      verify::runStandardPipeline({Q, nullptr, nullptr});
  EXPECT_EQ(DE.errorCount(), 0u) << verify::renderTextAll(DE, &Q);

  profile::ProfileData PD =
      core::profileProgram(F.P, &FuzzProgram::buildMemory);
  core::PostPassTool Tool(F.P, PD);
  Program Enhanced = Tool.adapt();
  Program R;
  ASSERT_TRUE(parseProgram(Enhanced.str(), R, Err)) << Err;
  verify::DiagnosticEngine DE2 =
      verify::runStandardPipeline({R, nullptr, nullptr});
  EXPECT_EQ(DE2.errorCount(), 0u) << verify::renderTextAll(DE2, &R);
}

TEST_P(Fuzz, SliceMembersArePartitionedBySchedule) {
  FuzzProgram F(uint64_t(GetParam()) * 7919 + 11);
  profile::ProfileData PD =
      core::profileProgram(F.P, &FuzzProgram::buildMemory);
  analysis::ProgramDeps Deps(F.P);
  analysis::RegionGraph RG = analysis::RegionGraph::build(Deps);
  analysis::CallGraph CG =
      analysis::CallGraph::build(F.P, PD.IndirectTargets,
                                 PD.CallSiteCounts);
  slicer::Slicer S(Deps, RG, CG, PD);
  sched::SliceScheduler Sched(Deps, RG, PD);

  for (const profile::DelinquentLoad &D :
       profile::selectDelinquentLoads(F.P, PD)) {
    slicer::Slice Sl =
        S.computeSlice(D.Ref, RG.innermostRegionOf(D.Ref, Deps));
    if (!Sl.Valid)
      continue;
    for (auto Model : {sched::SPModel::Chaining, sched::SPModel::Basic}) {
      sched::ScheduledSlice SS = Sched.schedule(Sl, Model);
      // Every scheduled instruction is a slice member and appears at most
      // once across the three sections.
      std::set<analysis::InstRef> Members(Sl.Insts.begin(),
                                          Sl.Insts.end());
      std::set<analysis::InstRef> Seen;
      auto CheckSection = [&](const std::vector<analysis::InstRef> &Sec) {
        for (const analysis::InstRef &I : Sec) {
          EXPECT_TRUE(Members.count(I)) << I.str();
          EXPECT_TRUE(Seen.insert(I).second)
              << I.str() << " scheduled twice";
        }
      };
      CheckSection(SS.Prologue);
      CheckSection(SS.Critical);
      CheckSection(SS.NonCritical);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(0, 24));
