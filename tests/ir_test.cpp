//===- tests/ir_test.cpp - Unit tests for the IR layer --------------------===//

#include "ir/DenseSidMap.h"
#include "ir/IRBuilder.h"
#include "ir/Program.h"
#include "ir/Verifier.h"

#include "StructuralCheck.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ssp::ir;
using ssp::tests::reportsCheck;
using ssp::tests::wellFormed;

namespace {

/// Builds: entry block sums 1..3 into r2 and halts.
Program makeTinyProgram() {
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  B.createBlock("entry");
  B.movI(ireg(1), 1);
  B.movI(ireg(2), 0);
  B.add(ireg(2), ireg(2), ireg(1));
  B.halt();
  P.setEntry(0);
  return P;
}

} // namespace

TEST(IR, BuilderAssignsUniqueIds) {
  Program P = makeTinyProgram();
  const Function &F = P.func(0);
  EXPECT_EQ(F.numInstIds(), 4u);
  EXPECT_EQ(F.block(0).Insts[0].Id, 0u);
  EXPECT_EQ(F.block(0).Insts[3].Id, 3u);
}

TEST(IR, VerifierAcceptsWellFormed) {
  Program P = makeTinyProgram();
  EXPECT_TRUE(wellFormed(P));
}

TEST(IR, VerifierRejectsEmptyBlock) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  B.createBlock("empty");
  EXPECT_TRUE(reportsCheck(P, "structural.empty-block"));
}

TEST(IR, VerifierRejectsFallthroughPastFunction) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  B.createBlock("entry");
  B.movI(ireg(1), 0); // No terminator.
  EXPECT_TRUE(reportsCheck(P, "structural.fallthrough"));
}

TEST(IR, VerifierRejectsStoreInSlice) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  uint32_t Entry = B.createBlock("entry");
  B.halt();
  uint32_t Slice = B.createBlock("slice", BlockKind::Slice);
  B.store(ireg(1), 0, ireg(2));
  B.killThread();
  (void)Entry;
  (void)Slice;
  EXPECT_TRUE(reportsCheck(P, "structural.slice-store"));
}

TEST(IR, VerifierRejectsChkCToNonStub) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  B.createBlock("entry");
  B.chkC(0); // Targets the body block itself.
  B.halt();
  EXPECT_TRUE(reportsCheck(P, "structural.chkc-target"));
}

TEST(IR, VerifierRejectsWriteToHardwiredZero) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  B.createBlock("entry");
  B.movI(ireg(0), 5);
  B.halt();
  EXPECT_TRUE(reportsCheck(P, "structural.hardwired-write"));
}

TEST(IR, VerifierRejectsBranchMidBlock) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  uint32_t Entry = B.createBlock("entry");
  B.br(preg(1), Entry);
  B.movI(ireg(1), 1); // After a branch.
  B.halt();
  EXPECT_TRUE(reportsCheck(P, "structural.terminator-position"));
}

TEST(IR, VerifierRejectsBadCallTarget) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  B.createBlock("entry");
  B.call(7); // No such function.
  B.halt();
  EXPECT_TRUE(reportsCheck(P, "structural.call-range"));
}

TEST(IR, VerifierRejectsLIBSlotOutOfRange) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  B.createBlock("entry");
  B.copyToLIB(LIBSlots - 1, ireg(1)); // The last slot is fine.
  B.copyToLIB(LIBSlots, ireg(1));
  B.copyToLIBI(LIBSlots + 1, 7);
  B.copyFromLIB(ireg(2), 99);
  B.halt();
  ssp::verify::DiagnosticEngine DE = ssp::tests::checkStructure(P);
  std::vector<std::string> Msgs;
  for (const ssp::verify::Diagnostic &D : DE.diagnostics()) {
    EXPECT_EQ(D.CheckId, "structural.lib-slot");
    Msgs.push_back(D.Message);
  }
  EXPECT_EQ(Msgs, (std::vector<std::string>{
                      "in f bb0: LIB slot 16 out of range (16 slots) in "
                      "'lib.st lib[16] = r1'",
                      "in f bb0: LIB slot 17 out of range (16 slots) in "
                      "'lib.sti lib[17] = 7'",
                      "in f bb0: LIB slot 99 out of range (16 slots) in "
                      "'lib.ld r2 = lib[99]'"}));
}

TEST(IR, LinkAssignsSequentialAddresses) {
  Program P = makeTinyProgram();
  LinkedProgram LP = LinkedProgram::link(P);
  ASSERT_EQ(LP.size(), 4u);
  EXPECT_EQ(LP.entry(), 0u);
  EXPECT_EQ(LP.at(0).I->Op, Opcode::MovI);
  EXPECT_EQ(LP.at(3).I->Op, Opcode::Halt);
}

TEST(IR, LinkBundlesDoNotSpanBlocks) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  uint32_t B0 = B.createBlock("b0");
  B.movI(ireg(1), 1); // Addr 0, bundle 0.
  uint32_t B1 = B.createBlock("b1");
  B.setInsertPoint(B0);
  B.jmp(B1);
  B.setInsertPoint(B1);
  B.movI(ireg(2), 2);
  B.halt();
  LinkedProgram LP = LinkedProgram::link(P);
  // Block b0 has 2 instructions (one bundle), b1 starts a new bundle.
  EXPECT_EQ(LP.at(0).BundleId, LP.at(1).BundleId);
  EXPECT_NE(LP.at(1).BundleId, LP.at(2).BundleId);
}

TEST(IR, LinkResolvesBranchTargets) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  uint32_t B0 = B.createBlock("b0");
  B.movI(ireg(1), 1);
  B.movI(ireg(2), 2);
  uint32_t B1 = B.createBlock("b1");
  B.setInsertPoint(B0);
  B.jmp(B1);
  B.setInsertPoint(B1);
  B.halt();
  LinkedProgram LP = LinkedProgram::link(P);
  EXPECT_EQ(LP.at(2).TargetAddr, LP.blockStart(0, B1));
}

TEST(IR, LinkResolvesCallTargets) {
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  B.createBlock("entry");
  B.call(1);
  B.halt();
  B.createFunction("callee");
  B.createBlock("entry");
  B.ret();
  P.setEntry(0);
  LinkedProgram LP = LinkedProgram::link(P);
  EXPECT_EQ(LP.at(0).TargetAddr, LP.funcEntry(1));
}

TEST(IR, StaticIdRoundTrip) {
  StaticId Id = makeStaticId(3, 17);
  EXPECT_EQ(staticIdFunc(Id), 3u);
  EXPECT_EQ(staticIdInst(Id), 17u);
}

TEST(IR, InstructionPrinting) {
  Instruction I;
  I.Op = Opcode::Load;
  I.Dst = ireg(3);
  I.Src1 = ireg(1);
  I.Imm = 8;
  EXPECT_EQ(I.str(), "ld8 r3 = [r1 + 8]");
}

TEST(IR, ProgramPrintingMentionsAttachments) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  B.createBlock("entry");
  B.halt();
  B.createBlock("sl", BlockKind::Slice);
  B.killThread();
  std::string S = P.str();
  EXPECT_NE(S.find("[slice]"), std::string::npos);
}

TEST(IR, ForEachUseVisitsAllSources) {
  Instruction I;
  I.Op = Opcode::Add;
  I.Dst = ireg(1);
  I.Src1 = ireg(2);
  I.Src2 = ireg(3);
  int Count = 0;
  I.forEachUse([&](Reg R) {
    ++Count;
    EXPECT_TRUE(R.isInt());
  });
  EXPECT_EQ(Count, 2);
  EXPECT_EQ(I.def(), ireg(1));
}

TEST(IR, StoreHasNoDef) {
  Instruction I;
  I.Op = Opcode::Store;
  I.Src1 = ireg(1);
  I.Src2 = ireg(2);
  EXPECT_FALSE(I.def().isValid());
}

TEST(DenseSidMap, IndexCreatesZeroInitialized) {
  DenseSidMap<int> M;
  EXPECT_TRUE(M.empty());
  StaticId S = makeStaticId(2, 7);
  EXPECT_EQ(M[S], 0);
  M[S] = 41;
  ++M[S];
  EXPECT_EQ(M.at(S), 42);
  EXPECT_EQ(M.size(), 1u);
  EXPECT_FALSE(M.empty());
}

TEST(DenseSidMap, FindAndCount) {
  DenseSidMap<int> M;
  StaticId Present = makeStaticId(0, 3), Absent = makeStaticId(1, 9);
  M[Present] = 5;
  ASSERT_NE(M.find(Present), M.end());
  EXPECT_EQ(M.find(Present)->second, 5);
  EXPECT_EQ(M.find(Absent), M.end());
  EXPECT_EQ(M.count(Present), 1u);
  EXPECT_EQ(M.count(Absent), 0u);

  const DenseSidMap<int> &CM = M;
  ASSERT_NE(CM.find(Present), CM.end());
  EXPECT_EQ(CM.find(Present)->second, 5);
}

TEST(DenseSidMap, IteratesInInsertionOrder) {
  DenseSidMap<int> M;
  StaticId Ids[] = {makeStaticId(3, 100), makeStaticId(0, 0),
                    makeStaticId(1, 50)};
  int V = 10;
  for (StaticId S : Ids)
    M[S] = V++;
  size_t I = 0;
  for (const auto &[Sid, Val] : M) {
    EXPECT_EQ(Sid, Ids[I]);
    EXPECT_EQ(Val, 10 + static_cast<int>(I));
    ++I;
  }
  EXPECT_EQ(I, 3u);
}

TEST(DenseSidMap, HandlesSparseLargeIds) {
  DenseSidMap<uint64_t> M;
  StaticId Big = makeStaticId(17, 1 << 20);
  StaticId Small = makeStaticId(0, 1);
  M[Big] = 1;
  M[Small] = 2;
  EXPECT_EQ(M.size(), 2u);
  EXPECT_EQ(M.at(Big), 1u);
  EXPECT_EQ(M.at(Small), 2u);
}

TEST(DenseSidMap, ClearEmpties) {
  DenseSidMap<int> M;
  M[makeStaticId(1, 2)] = 3;
  M.clear();
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.find(makeStaticId(1, 2)), M.end());
  M[makeStaticId(1, 2)] = 4; // Reusable after clear.
  EXPECT_EQ(M.size(), 1u);
}

// SparseSidMap: the same API over a hashed index, whose memory follows
// the entry count rather than the largest id.
TEST(SparseSidMap, MatchesDenseSidMapOnTheSameKeys) {
  DenseSidMap<int> D;
  SparseSidMap<int> S;
  StaticId Ids[] = {makeStaticId(599, MaxInstId - 1), makeStaticId(0, 0),
                    makeStaticId(3, 100), makeStaticId(599, MaxInstId - 1)};
  int V = 10;
  for (StaticId Sid : Ids) {
    D[Sid] += V;
    S[Sid] += V++;
  }
  ASSERT_EQ(S.size(), 3u);
  EXPECT_TRUE(std::equal(D.begin(), D.end(), S.begin(), S.end()));
  EXPECT_EQ(S.at(Ids[0]), 23);
  EXPECT_EQ(S.count(makeStaticId(3, 101)), 0u);
  EXPECT_EQ(S.find(makeStaticId(4, 100)), S.end());
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.find(Ids[1]), S.end());
}
