//===- tests/codegen_test.cpp - Unit tests for the binary rewriter --------===//

#include "codegen/SSPCodeGen.h"
#include "core/PostPassTool.h"
#include "workloads/Workload.h"

#include "StructuralCheck.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::codegen;

namespace {

/// Adapts the arc kernel and returns (original, enhanced, report).
struct Adapted {
  Program Orig;
  Program Enhanced;
  core::AdaptationReport Report;
};

Adapted adaptArcKernel() {
  workloads::Workload W = workloads::makeArcKernel(128, 1 << 12);
  Adapted A{W.Build(), Program(), {}};
  profile::ProfileData PD = core::profileProgram(A.Orig, W.BuildMemory);
  core::PostPassTool Tool(A.Orig, PD);
  A.Enhanced = Tool.adapt(&A.Report);
  return A;
}

} // namespace

TEST(CodeGen, PreservesOriginalStaticIds) {
  Adapted A = adaptArcKernel();
  // Every original (func, id) pair must still exist with the same opcode.
  profile::StaticIdIndex Index(A.Enhanced);
  for (uint32_t FI = 0; FI < A.Orig.numFuncs(); ++FI) {
    const Function &F = A.Orig.func(FI);
    for (const BasicBlock &BB : F.blocks())
      for (const Instruction &I : BB.Insts) {
        const analysis::InstRef *Ref = Index.find(makeStaticId(FI, I.Id));
        ASSERT_NE(Ref, nullptr);
        EXPECT_EQ(Ref->get(A.Enhanced).Op, I.Op);
      }
  }
}

TEST(CodeGen, AttachmentsFollowFunctionBody) {
  Adapted A = adaptArcKernel();
  // Figure 7 layout: body blocks first, then stub/slice attachments.
  for (uint32_t FI = 0; FI < A.Enhanced.numFuncs(); ++FI) {
    bool SeenAttachment = false;
    for (const BasicBlock &BB : A.Enhanced.func(FI).blocks()) {
      if (BB.isAttachment())
        SeenAttachment = true;
      else
        EXPECT_FALSE(SeenAttachment);
    }
  }
}

TEST(CodeGen, StubCopiesLiveInsAndReturns) {
  Adapted A = adaptArcKernel();
  bool FoundStub = false;
  for (uint32_t FI = 0; FI < A.Enhanced.numFuncs(); ++FI) {
    for (const BasicBlock &BB : A.Enhanced.func(FI).blocks()) {
      if (BB.Kind != BlockKind::Stub)
        continue;
      FoundStub = true;
      EXPECT_EQ(BB.Insts.back().Op, Opcode::Rfi);
      bool HasCopy = false, HasSpawn = false;
      for (const Instruction &I : BB.Insts) {
        HasCopy |= I.Op == Opcode::CopyToLIB || I.Op == Opcode::CopyToLIBI;
        HasSpawn |= I.Op == Opcode::Spawn;
      }
      EXPECT_TRUE(HasCopy);
      EXPECT_TRUE(HasSpawn);
    }
  }
  EXPECT_TRUE(FoundStub);
}

TEST(CodeGen, SliceBlocksPrefetchTargets) {
  Adapted A = adaptArcKernel();
  unsigned Prefetches = 0, Kills = 0;
  for (uint32_t FI = 0; FI < A.Enhanced.numFuncs(); ++FI) {
    for (const BasicBlock &BB : A.Enhanced.func(FI).blocks()) {
      if (BB.Kind != BlockKind::Slice)
        continue;
      for (const Instruction &I : BB.Insts) {
        Prefetches += I.Op == Opcode::Prefetch;
        Kills += I.Op == Opcode::KillThread;
      }
    }
  }
  EXPECT_GT(Prefetches, 0u);
  EXPECT_GT(Kills, 0u);
}

TEST(CodeGen, ChkCTargetsStubs) {
  Adapted A = adaptArcKernel();
  unsigned Triggers = 0;
  for (uint32_t FI = 0; FI < A.Enhanced.numFuncs(); ++FI) {
    const Function &F = A.Enhanced.func(FI);
    for (const BasicBlock &BB : F.blocks())
      for (const Instruction &I : BB.Insts) {
        if (I.Op != Opcode::ChkC)
          continue;
        ++Triggers;
        EXPECT_EQ(F.block(I.Target).Kind, BlockKind::Stub);
      }
  }
  EXPECT_EQ(Triggers, A.Report.Rewrite.TriggersInserted);
  EXPECT_GT(Triggers, 0u);
}

TEST(CodeGen, EmptyAdaptationIsIdentityModuloClone) {
  Program P = workloads::makeArcKernel(64, 1 << 10).Build();
  RewriteInfo Info;
  Program Copy = rewriteWithSlices(P, {}, &Info);
  EXPECT_EQ(Info.TriggersInserted, 0u);
  EXPECT_EQ(Copy.numInsts(), P.numInsts());
  EXPECT_EQ(Copy.str(), P.str());
}

TEST(CodeGen, RewriteOutputAlwaysVerifies) {
  for (const workloads::Workload &W : workloads::paperSuite()) {
    Program Orig = W.Build();
    profile::ProfileData PD = core::profileProgram(Orig, W.BuildMemory);
    core::PostPassTool Tool(Orig, PD);
    Program Enhanced = Tool.adapt();
    EXPECT_TRUE(tests::wellFormed(Enhanced)) << W.Name;
  }
}

TEST(CodeGen, InnerUnrollReplicatesInnerLoopMembers) {
  // mst's chain walks its collision chain InnerUnroll times.
  workloads::Workload W = workloads::makeMst();
  Program Orig = W.Build();
  profile::ProfileData PD = core::profileProgram(Orig, W.BuildMemory);

  auto CountSliceLoads = [&](unsigned Unroll) {
    core::ToolOptions Opts;
    Opts.InnerUnroll = Unroll;
    core::PostPassTool Tool(Orig, PD, Opts);
    Program E = Tool.adapt();
    unsigned Loads = 0;
    for (uint32_t FI = 0; FI < E.numFuncs(); ++FI)
      for (const BasicBlock &BB : E.func(FI).blocks())
        if (BB.Kind == BlockKind::Slice)
          for (const Instruction &I : BB.Insts)
            Loads += isLoad(I.Op);
    return Loads;
  };
  EXPECT_GT(CountSliceLoads(3), CountSliceLoads(1));
}
