//===- tests/executor_test.cpp - Functional executor semantics ------------===//
//
// Direct semantics tests for every opcode: each test builds a tiny
// program, steps the functional executor, and checks architectural state
// and the reported control/memory effects.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "sim/Executor.h"

#include <bit>
#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::sim;

namespace {

/// Harness: a single-block program stepped instruction by instruction.
struct ExecHarness {
  Program P;
  IRBuilder B{P};
  ThreadContext Ctx;
  mem::SimMemory Mem;

  ExecHarness() {
    B.createFunction("t");
    B.createBlock("b");
  }

  /// Finalizes (appends halt), links, and executes \p Steps instructions.
  ExecOutcome run(unsigned Steps, bool Speculative = false,
                  bool FreeCtx = true) {
    B.halt();
    Linked = std::make_unique<LinkedProgram>(LinkedProgram::link(P));
    ExecOutcome Out;
    for (unsigned I = 0; I < Steps; ++I)
      executeStep(Ctx, *Linked, Mem, Speculative, FreeCtx, Out);
    return Out;
  }

  std::unique_ptr<LinkedProgram> Linked;
};

uint64_t bits(double D) { return std::bit_cast<uint64_t>(D); }
double dbl(uint64_t U) { return std::bit_cast<double>(U); }

} // namespace

TEST(Executor, IntegerALU) {
  ExecHarness H;
  H.B.movI(ireg(1), 7);
  H.B.movI(ireg(2), 3);
  H.B.add(ireg(3), ireg(1), ireg(2));
  H.B.sub(ireg(4), ireg(1), ireg(2));
  H.B.mul(ireg(5), ireg(1), ireg(2));
  H.B.and_(ireg(6), ireg(1), ireg(2));
  H.B.or_(ireg(7), ireg(1), ireg(2));
  H.B.xor_(ireg(8), ireg(1), ireg(2));
  H.B.shl(ireg(9), ireg(1), ireg(2));
  H.B.shr(ireg(10), ireg(1), ireg(2));
  H.run(10);
  EXPECT_EQ(H.Ctx.readInt(3), 10u);
  EXPECT_EQ(H.Ctx.readInt(4), 4u);
  EXPECT_EQ(H.Ctx.readInt(5), 21u);
  EXPECT_EQ(H.Ctx.readInt(6), 3u);
  EXPECT_EQ(H.Ctx.readInt(7), 7u);
  EXPECT_EQ(H.Ctx.readInt(8), 4u);
  EXPECT_EQ(H.Ctx.readInt(9), 56u);
  EXPECT_EQ(H.Ctx.readInt(10), 0u);
}

TEST(Executor, ImmediateALUAndWraparound) {
  ExecHarness H;
  H.B.movI(ireg(1), -1); // All ones.
  H.B.addI(ireg(2), ireg(1), 2);
  H.B.mulI(ireg(3), ireg(1), 3);
  H.B.shlI(ireg(4), ireg(1), 60);
  H.B.andI(ireg(5), ireg(1), 0xFF);
  H.B.orI(ireg(6), ireg(0), 0x10);
  H.run(6);
  EXPECT_EQ(H.Ctx.readInt(2), 1u); // Wraps.
  EXPECT_EQ(H.Ctx.readInt(3), static_cast<uint64_t>(-3));
  EXPECT_EQ(H.Ctx.readInt(4), 0xF000000000000000ull);
  EXPECT_EQ(H.Ctx.readInt(5), 0xFFu);
  EXPECT_EQ(H.Ctx.readInt(6), 0x10u);
}

TEST(Executor, HardwiredRegisters) {
  ExecHarness H;
  H.B.addI(ireg(1), ireg(0), 5); // r0 reads as 0.
  H.run(1);
  EXPECT_EQ(H.Ctx.readInt(1), 5u);
  EXPECT_TRUE(H.Ctx.readPred(0)); // p0 reads as true.
}

TEST(Executor, CompareConditions) {
  ExecHarness H;
  H.B.movI(ireg(1), 5);
  H.B.movI(ireg(2), 9);
  H.B.cmp(CondCode::LT, preg(1), ireg(1), ireg(2));
  H.B.cmp(CondCode::GT, preg(2), ireg(1), ireg(2));
  H.B.cmpI(CondCode::EQ, preg(3), ireg(1), 5);
  H.B.cmpI(CondCode::NE, preg(4), ireg(1), 5);
  H.B.cmpI(CondCode::LE, preg(5), ireg(1), 5);
  H.B.cmpI(CondCode::GE, preg(6), ireg(1), 6);
  H.run(8);
  EXPECT_TRUE(H.Ctx.readPred(1));
  EXPECT_FALSE(H.Ctx.readPred(2));
  EXPECT_TRUE(H.Ctx.readPred(3));
  EXPECT_FALSE(H.Ctx.readPred(4));
  EXPECT_TRUE(H.Ctx.readPred(5));
  EXPECT_FALSE(H.Ctx.readPred(6));
}

TEST(Executor, SignedCompare) {
  ExecHarness H;
  H.B.movI(ireg(1), -2);
  H.B.cmpI(CondCode::LT, preg(1), ireg(1), 0);
  H.run(2);
  EXPECT_TRUE(H.Ctx.readPred(1)) << "compares are signed";
}

TEST(Executor, FloatingPoint) {
  ExecHarness H;
  H.B.movI(ireg(1), 3);
  H.B.xtof(freg(1), ireg(1));
  H.B.movI(ireg(2), 4);
  H.B.xtof(freg(2), ireg(2));
  H.B.fadd(freg(3), freg(1), freg(2));
  H.B.fsub(freg(4), freg(1), freg(2));
  H.B.fmul(freg(5), freg(1), freg(2));
  H.B.ftox(ireg(3), freg(5));
  H.run(8);
  EXPECT_EQ(dbl(H.Ctx.readFP(3)), 7.0);
  EXPECT_EQ(dbl(H.Ctx.readFP(4)), -1.0);
  EXPECT_EQ(dbl(H.Ctx.readFP(5)), 12.0);
  EXPECT_EQ(H.Ctx.readInt(3), 12u);
}

TEST(Executor, LoadStoreRoundTrip) {
  ExecHarness H;
  H.Mem.write(0x2000, 0);
  H.B.movI(ireg(1), 0x2000);
  H.B.movI(ireg(2), 77);
  H.B.store(ireg(1), 0, ireg(2));
  H.B.load(ireg(3), ireg(1), 0);
  ExecOutcome Out = H.run(4);
  EXPECT_EQ(H.Ctx.readInt(3), 77u);
  EXPECT_TRUE(Out.IsMem);
  EXPECT_TRUE(Out.IsLoad);
  EXPECT_EQ(Out.MemAddr, 0x2000u);
}

TEST(Executor, LoadFStoresBits) {
  ExecHarness H;
  H.Mem.write(0x2000, bits(2.5));
  H.B.movI(ireg(1), 0x2000);
  H.B.loadF(freg(1), ireg(1), 0);
  H.B.storeF(ireg(1), 8, freg(1));
  H.run(3);
  EXPECT_EQ(dbl(H.Ctx.readFP(1)), 2.5);
  EXPECT_EQ(H.Mem.read(0x2008), bits(2.5));
}

TEST(Executor, PrefetchHasNoArchitecturalEffect) {
  ExecHarness H;
  H.Mem.write(0x2000, 42);
  H.B.movI(ireg(1), 0x2000);
  H.B.prefetch(ireg(1), 0);
  ExecOutcome Out = H.run(2);
  EXPECT_TRUE(Out.IsMem);
  EXPECT_FALSE(Out.IsLoad);
  EXPECT_EQ(H.Mem.read(0x2000), 42u);
}

TEST(Executor, SpeculativeWildLoadReturnsZero) {
  ExecHarness H;
  H.B.movI(ireg(1), 0x123458);
  H.B.load(ireg(2), ireg(1), 0); // Unmapped.
  ExecOutcome Out = H.run(2, /*Speculative=*/true);
  EXPECT_TRUE(Out.WildLoad);
  EXPECT_EQ(H.Ctx.readInt(2), 0u);
}

TEST(Executor, BranchTakenAndNot) {
  // bb0: p1 = (1 < 2); br p1 -> bb1 ... bb1: halt
  Program P;
  IRBuilder B(P);
  B.createFunction("t");
  uint32_t B0 = B.createBlock("b0");
  uint32_t B1 = B.createBlock("b1");
  B.setInsertPoint(B0);
  B.movI(ireg(1), 1);
  B.cmpI(CondCode::LT, preg(1), ireg(1), 2);
  B.br(preg(1), B1);
  B.setInsertPoint(B1);
  B.halt();
  P.setEntry(0);
  LinkedProgram LP = LinkedProgram::link(P);
  ThreadContext Ctx;
  mem::SimMemory Mem;
  ExecOutcome Out;
  executeStep(Ctx, LP, Mem, false, true, Out);
  executeStep(Ctx, LP, Mem, false, true, Out);
  executeStep(Ctx, LP, Mem, false, true, Out);
  EXPECT_EQ(Out.Kind, CtrlKind::Branch);
  EXPECT_TRUE(Out.Taken);
  EXPECT_EQ(Ctx.PC, LP.blockStart(0, B1));
}

TEST(Executor, CallAndReturn) {
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  B.createBlock("e");
  B.call(1);
  B.movI(ireg(5), 99); // Return lands here.
  B.halt();
  B.createFunction("leaf");
  B.createBlock("e");
  B.movI(ireg(4), 7);
  B.ret();
  P.setEntry(0);
  LinkedProgram LP = LinkedProgram::link(P);
  ThreadContext Ctx;
  mem::SimMemory Mem;
  ExecOutcome Out;
  executeStep(Ctx, LP, Mem, false, true, Out); // call
  EXPECT_EQ(Out.Kind, CtrlKind::DirectJump);
  EXPECT_EQ(Ctx.PC, LP.funcEntry(1));
  EXPECT_EQ(Ctx.CallStack.size(), 1u);
  executeStep(Ctx, LP, Mem, false, true, Out); // movI in leaf
  executeStep(Ctx, LP, Mem, false, true, Out); // ret
  EXPECT_EQ(Out.Kind, CtrlKind::IndirectJump);
  EXPECT_TRUE(Ctx.CallStack.empty());
  executeStep(Ctx, LP, Mem, false, true, Out); // movI r5
  EXPECT_EQ(Ctx.readInt(5), 99u);
  EXPECT_EQ(Ctx.readInt(4), 7u);
}

TEST(Executor, IndirectCallUsesRegister) {
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  B.createBlock("e");
  B.movI(ireg(1), 1);
  B.callInd(ireg(1));
  B.halt();
  B.createFunction("target");
  B.createBlock("e");
  B.ret();
  P.setEntry(0);
  LinkedProgram LP = LinkedProgram::link(P);
  ThreadContext Ctx;
  mem::SimMemory Mem;
  ExecOutcome Out;
  executeStep(Ctx, LP, Mem, false, true, Out);
  executeStep(Ctx, LP, Mem, false, true, Out);
  EXPECT_EQ(Ctx.PC, LP.funcEntry(1));
}

TEST(Executor, ChkCFiresOnlyWithFreeContext) {
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  B.createBlock("e");
  B.chkC(1);
  B.halt();
  B.createBlock("stub", BlockKind::Stub);
  B.rfi();
  P.setEntry(0);
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  ExecOutcome Out;

  ThreadContext Fired;
  executeStep(Fired, LP, Mem, false, /*FreeContextAvailable=*/true, Out);
  EXPECT_EQ(Out.Kind, CtrlKind::ChkCFired);
  EXPECT_EQ(Fired.PC, LP.blockStart(0, 1));
  ASSERT_EQ(Fired.ResumeStack.size(), 1u);

  // rfi returns to the instruction after the chk.c.
  executeStep(Fired, LP, Mem, false, true, Out);
  EXPECT_EQ(Out.Kind, CtrlKind::RfiReturn);
  EXPECT_EQ(Fired.PC, 1u);
  EXPECT_TRUE(Fired.ResumeStack.empty());

  ThreadContext Nop;
  executeStep(Nop, LP, Mem, false, /*FreeContextAvailable=*/false, Out);
  EXPECT_EQ(Out.Kind, CtrlKind::ChkCNop);
  EXPECT_EQ(Nop.PC, 1u);
}

TEST(Executor, LIBStageAndSpawnSnapshot) {
  ExecHarness H;
  H.B.movI(ireg(1), 1111);
  H.B.copyToLIB(0, ireg(1));
  H.B.copyToLIBI(1, 2222);
  H.run(3);
  EXPECT_EQ(H.Ctx.LIBStage[0], 1111u);
  EXPECT_EQ(H.Ctx.LIBStage[1], 2222u);
}

TEST(Executor, SpawnCapturesStagedFrame) {
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  B.createBlock("e");
  B.movI(ireg(1), 5);
  B.copyToLIB(0, ireg(1));
  B.spawn(1);
  B.movI(ireg(1), 6); // After the snapshot.
  B.halt();
  B.createBlock("sl", BlockKind::Slice);
  B.killThread();
  P.setEntry(0);
  LinkedProgram LP = LinkedProgram::link(P);
  ThreadContext Ctx;
  mem::SimMemory Mem;
  ExecOutcome Out;
  executeStep(Ctx, LP, Mem, false, true, Out);
  executeStep(Ctx, LP, Mem, false, true, Out);
  executeStep(Ctx, LP, Mem, false, true, Out); // spawn
  EXPECT_EQ(Out.Kind, CtrlKind::SpawnPoint);
  EXPECT_TRUE(Out.HasSpawn);
  EXPECT_EQ(Ctx.LIBStage[0], 5u); // The frame a caller snapshots.
  EXPECT_EQ(Out.SpawnTargetAddr, LP.blockStart(0, 1));
}

TEST(Executor, CopyFromLIBReadsIncomingFrame) {
  ExecHarness H;
  H.Ctx.LIBIn[3] = 4242;
  H.B.copyFromLIB(ireg(9), 3);
  H.run(1);
  EXPECT_EQ(H.Ctx.readInt(9), 4242u);
}

TEST(Executor, HaltParksThePC) {
  ExecHarness H;
  ExecOutcome Out = H.run(1); // The appended halt.
  EXPECT_EQ(Out.Kind, CtrlKind::Halt);
  uint32_t PC = H.Ctx.PC;
  executeStep(H.Ctx, *H.Linked, H.Mem, false, true, Out);
  EXPECT_EQ(H.Ctx.PC, PC) << "halt must not advance";
}

TEST(Executor, KillParksSpeculativeThread) {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  B.createBlock("e");
  B.halt();
  B.createBlock("sl", BlockKind::Slice);
  B.killThread();
  P.setEntry(0);
  LinkedProgram LP = LinkedProgram::link(P);
  ThreadContext Ctx;
  Ctx.PC = LP.blockStart(0, 1);
  mem::SimMemory Mem;
  ExecOutcome Out;
  executeStep(Ctx, LP, Mem, true, false, Out);
  EXPECT_EQ(Out.Kind, CtrlKind::Kill);
}
