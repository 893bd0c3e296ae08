//===- tests/slicer_test.cpp - Unit tests for the slicer ------------------===//

#include "analysis/RegionGraph.h"
#include "ir/IRBuilder.h"
#include "profile/Profile.h"
#include "slicer/Slicer.h"
#include "workloads/Workload.h"

#include "DifferentialCorpus.h"

#include <gtest/gtest.h>

#include <deque>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::analysis;
using namespace ssp::slicer;

namespace {

/// Everything the slicer needs for one program.
struct SliceHarness {
  Program P;
  profile::ProfileData PD;
  ProgramDeps Deps;
  RegionGraph RG;
  CallGraph CG;

  SliceHarness(Program Prog, profile::ProfileData Profile)
      : P(std::move(Prog)), PD(std::move(Profile)), Deps(P),
        RG(RegionGraph::build(Deps)),
        CG(CallGraph::build(P, PD.IndirectTargets, PD.CallSiteCounts)) {}

  Slicer makeSlicer(SliceOptions Opts = SliceOptions()) {
    return Slicer(Deps, RG, CG, PD, Opts);
  }
};

} // namespace

TEST(Slicer, ArcKernelSliceContainsInductionAndPointerLoad) {
  workloads::Workload W = workloads::makeArcKernel(64, 1 << 10);
  Program P = W.Build();
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  profile::ProfileData PD = profile::collectControlFlowProfile(LP, Mem);

  SliceHarness H(std::move(P), std::move(PD));
  Slicer S = H.makeSlicer();

  // The delinquent load is `ld r6 = [r3 + 0]` in the loop (block 1).
  // Find it.
  InstRef Load{0, 1, 1};
  ASSERT_EQ(Load.get(H.P).Op, Opcode::Load);
  int Region = H.RG.innermostRegionOf(Load, H.Deps);
  Slice Sl = S.computeSlice(Load, Region);
  ASSERT_TRUE(Sl.Valid) << Sl.RejectReason;

  // The slice must contain the tail load and the induction update, but
  // not the accumulation work of the main loop.
  bool HasTailLoad = false, HasInduction = false, HasFiller = false;
  for (const InstRef &M : Sl.Insts) {
    const Instruction &I = M.get(H.P);
    if (I.Op == Opcode::Load && I.Imm == 8)
      HasTailLoad = true;
    if (I.Op == Opcode::AddI && I.Dst == ireg(1))
      HasInduction = true;
    if (I.Op == Opcode::Add && I.Dst == ireg(2)) // Sum accumulation.
      HasFiller = true;
  }
  EXPECT_TRUE(HasTailLoad);
  EXPECT_TRUE(HasInduction);
  EXPECT_FALSE(HasFiller) << "slicing must drop non-address computation";

  // Live-ins: the arc pointer and the loop bound.
  EXPECT_FALSE(Sl.LiveIns.empty());
  bool HasArc = false;
  for (Reg R : Sl.LiveIns)
    HasArc |= R == ireg(1);
  EXPECT_TRUE(HasArc);
}

TEST(Slicer, SliceNeverContainsStores) {
  for (const workloads::Workload &W : workloads::paperSuite()) {
    Program P = W.Build();
    LinkedProgram LP = LinkedProgram::link(P);
    mem::SimMemory Mem;
    W.BuildMemory(Mem);
    profile::ProfileData PD = profile::collectControlFlowProfile(LP, Mem);
    SliceHarness H(std::move(P), std::move(PD));
    Slicer S = H.makeSlicer();

    // Slice every load in the program against its innermost region; no
    // resulting slice may contain a store (they have no register defs, so
    // this exercises the closure rules).
    for (uint32_t FI = 0; FI < H.P.numFuncs(); ++FI) {
      const Function &F = H.P.func(FI);
      for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
        for (uint32_t II = 0; II < F.block(BI).Insts.size(); ++II) {
          InstRef Ref{FI, BI, II};
          if (!isLoad(Ref.get(H.P).Op))
            continue;
          Slice Sl = S.computeSlice(
              Ref, H.RG.innermostRegionOf(Ref, H.Deps));
          for (const InstRef &M : Sl.Insts)
            EXPECT_FALSE(isStore(M.get(H.P).Op))
                << W.Name << " slice of " << Ref.str() << " contains "
                << M.get(H.P).str();
        }
      }
    }
  }
}

TEST(Slicer, SpeculativeSlicingFiltersColdBlocks) {
  // A loop whose address computation has a cold path: with speculative
  // slicing the cold producer is excluded.
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  uint32_t Entry = B.createBlock("entry");
  uint32_t Loop = B.createBlock("loop");
  uint32_t Hot = B.createBlock("hot");
  uint32_t Latch = B.createBlock("latch");
  uint32_t Exit = B.createBlock("exit");
  uint32_t Cold = B.createBlock("cold");
  const Reg Ptr = ireg(1), K = ireg(2), Val = ireg(3), Res = ireg(4);
  const Reg Always = preg(1), Cont = preg(2);

  B.setInsertPoint(Entry);
  B.movI(Ptr, 0x10000);
  B.movI(K, 0x10000 + 64 * 64);
  B.movI(Res, workloads::ResultAddr);
  B.jmp(Loop);
  B.setInsertPoint(Loop);
  B.cmpI(CondCode::EQ, Always, Ptr, -1); // Never true.
  B.br(Always, Cold); // Falls through to hot.
  B.setInsertPoint(Hot);
  B.addI(Ptr, Ptr, 64);
  B.setInsertPoint(Latch);
  B.load(Val, Ptr, 0);
  B.cmp(CondCode::LT, Cont, Ptr, K);
  B.br(Cont, Loop);
  B.setInsertPoint(Exit);
  B.store(Res, 0, Val);
  B.halt();
  B.setInsertPoint(Cold);
  B.addI(Ptr, Ptr, 128); // Cold producer of the address.
  B.jmp(Latch);
  P.setEntry(0);

  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  for (unsigned I = 0; I <= 64; ++I)
    Mem.write(0x10000 + 64 * I, I);
  Mem.write(workloads::ResultAddr, 0);
  profile::ProfileData PD = profile::collectControlFlowProfile(LP, Mem);

  SliceHarness H(std::move(P), std::move(PD));
  InstRef Load{0, Latch, 0};
  int Region = H.RG.innermostRegionOf(Load, H.Deps);

  Slicer Speculative = H.makeSlicer();
  Slice SpecSlice = Speculative.computeSlice(Load, Region);
  ASSERT_TRUE(SpecSlice.Valid);
  EXPECT_FALSE(SpecSlice.contains({0, Cold, 0}))
      << "cold producer must be filtered";

  SliceOptions StaticOpts;
  StaticOpts.Speculative = false;
  Slicer Static = H.makeSlicer(StaticOpts);
  Slice StaticSlice = Static.computeSlice(Load, Region);
  ASSERT_TRUE(StaticSlice.Valid);
  EXPECT_TRUE(StaticSlice.contains({0, Cold, 0}))
      << "static slicing follows all paths";
  EXPECT_GT(StaticSlice.Insts.size(), SpecSlice.Insts.size());
}

TEST(Slicer, SummariesCoverRecursion) {
  workloads::Workload W = workloads::makeTreeaddDF();
  Program P = W.Build();
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  profile::ProfileData PD = profile::collectControlFlowProfile(LP, Mem);
  SliceHarness H(std::move(P), std::move(PD));
  Slicer S = H.makeSlicer();
  // The recursive function's summary must exist.
  const FuncSummary &Sum = S.summaryOf(1);
  EXPECT_GT(Sum.Defined.count(), 0u);
  // Every defined register's summary carries at least its defining
  // instruction.
  Sum.Defined.forEachSetBit([&](size_t Dense) {
    const FuncSummary::RegInfo *Info =
        Sum.regInfo(static_cast<unsigned>(Dense));
    ASSERT_NE(Info, nullptr);
    EXPECT_FALSE(Info->Insts.empty());
  });
}

TEST(Slicer, ContextSensitiveSliceReachesCaller) {
  workloads::Workload W = workloads::makeTreeaddDF();
  Program P = W.Build();
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  profile::ProfileData PD = profile::collectControlFlowProfile(LP, Mem);
  SliceHarness H(std::move(P), std::move(PD));
  Slicer S = H.makeSlicer();

  // The node-value load in treeadd's body.
  InstRef Load{1, 1, 2};
  ASSERT_TRUE(isLoad(Load.get(H.P).Op));
  int ProcRegion = H.RG.procedureRegion(1);

  // Without context: the address (r10) is a plain live-in; nothing to
  // compute.
  Slice NoCtx = S.computeSlice(Load, ProcRegion);
  // With the recursive call-site context, the slice pulls in the child
  // pointer load from the caller frame (context-sensitive step).
  const CallSite &Rec = H.CG.callersOf(1).front();
  Slice WithCtx = S.computeSlice(Load, ProcRegion, {Rec.Site});
  ASSERT_TRUE(WithCtx.Valid) << WithCtx.RejectReason;
  EXPECT_TRUE(WithCtx.Interprocedural);
  EXPECT_GT(WithCtx.Insts.size(), NoCtx.Insts.size());
  bool HasChildLoad = false;
  for (const InstRef &M : WithCtx.Insts) {
    const Instruction &I = M.get(H.P);
    if (isLoad(I.Op) && (I.Imm == 8 || I.Imm == 16))
      HasChildLoad = true;
  }
  EXPECT_TRUE(HasChildLoad);
}

TEST(Slicer, MergeUnionsEverything) {
  Slice A, B2;
  A.RegionIdx = B2.RegionIdx = 3;
  A.Valid = B2.Valid = true;
  A.Insts = {{0, 1, 0}};
  B2.Insts = {{0, 1, 1}};
  A.TargetLoads = {{0, 1, 5}};
  B2.TargetLoads = {{0, 1, 6}};
  A.LiveIns = {ireg(1)};
  B2.LiveIns = {ireg(2)};
  Slicer::mergeInto(A, B2);
  EXPECT_EQ(A.Insts.size(), 2u);
  EXPECT_EQ(A.TargetLoads.size(), 2u);
  EXPECT_EQ(A.LiveIns.size(), 2u);
}

TEST(Slicer, CombineRequiresSharedNodes) {
  Slice A, B2;
  A.RegionIdx = B2.RegionIdx = 3;
  A.Valid = B2.Valid = true;
  A.Insts = {{0, 1, 0}};
  B2.Insts = {{0, 1, 1}};
  EXPECT_FALSE(Slicer::combineIfOverlapping(A, B2));
  B2.Insts.push_back({0, 1, 0});
  EXPECT_TRUE(Slicer::combineIfOverlapping(A, B2));
}

TEST(Slicer, RejectsOversizedSlices) {
  workloads::Workload W = workloads::makeArcKernel(64, 1 << 10);
  Program P = W.Build();
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  W.BuildMemory(Mem);
  profile::ProfileData PD = profile::collectControlFlowProfile(LP, Mem);
  SliceHarness H(std::move(P), std::move(PD));
  SliceOptions Tiny;
  Tiny.MaxSize = 1;
  Slicer S = H.makeSlicer(Tiny);
  InstRef Load{0, 1, 1};
  Slice Sl = S.computeSlice(Load, H.RG.innermostRegionOf(Load, H.Deps));
  EXPECT_FALSE(Sl.Valid);
  EXPECT_NE(Sl.RejectReason.find("size"), std::string::npos);
}

namespace {

/// Callee summaries as they were built before one pass per register: a
/// fixed point of up to eight rounds over every function, in which each
/// def re-seeds its register's closure from the summary so far and
/// rebuilds the summary. Kept as the reference the current summaries must
/// match exactly.
std::vector<FuncSummary> reseedingSummaries(const ProgramDeps &Deps,
                                            const profile::ProfileData &PD,
                                            bool Speculative) {
  const Program &P = Deps.program();
  const InstIndex &Index = Deps.instIndex();
  auto Cold = [&](uint32_t Func, uint32_t Block) {
    return Speculative && PD.blockCount(Func, Block) == 0;
  };
  std::vector<FuncSummary> Tab(P.numFuncs());
  for (FuncSummary &Sum : Tab) {
    Sum.DefinedRegs.resize(Reg::NumDenseIndices);
    Sum.Defined.resize(Reg::NumDenseIndices);
  }
  support::BitVector Members(Index.numInsts());
  support::BitVector Entry(Reg::NumDenseIndices);
  std::vector<uint32_t> Scratch;
  bool Changed = true;
  unsigned Round = 0;
  while (Changed && Round < 8) {
    Changed = false;
    ++Round;
    for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
      const FunctionDeps &FD = Deps.forFunction(FI);
      FuncSummary &Sum = Tab[FI];
      for (const InstRef &Def : FD.reachingDefs().allDefs()) {
        Reg R = Def.get(P).def();
        if (Cold(FI, Def.Block))
          continue;
        Sum.Defined.set(R.denseIndex());
        FuncSummary::RegInfo &Info = Sum.DefinedRegs[R.denseIndex()];
        Members.clearAll();
        Entry.clearAll();
        size_t NumMembers = Info.Insts.size();
        size_t NumEntry = Info.EntryDeps.size();
        for (const InstRef &M : Info.Insts)
          Members.set(Index.id(M));
        for (Reg E : Info.EntryDeps)
          Entry.set(E.denseIndex());
        size_t OldMembers = NumMembers, OldEntry = NumEntry;
        std::deque<InstRef> Work;
        if (Members.testAndSet(Index.id(Def))) {
          ++NumMembers;
          Work.push_back(Def);
        }
        while (!Work.empty()) {
          InstRef I = Work.front();
          Work.pop_front();
          if (NumMembers > 200) // The summary size cap.
            break;
          I.get(P).forEachUse([&](Reg U) {
            if ((U.isInt() || U.isPred()) && U.Num == 0)
              return;
            FD.reachingDefs().forEachReachingDef(
                I.Block, I.Inst, U, Scratch, [&](const InstRef &Prod) {
                  if (Cold(FI, Prod.Block))
                    return;
                  if (Members.testAndSet(Index.id(Prod))) {
                    ++NumMembers;
                    Work.push_back(Prod);
                  }
                });
            if (FD.reachingDefs().mayBeLiveIn(I.Block, I.Inst, U) &&
                Entry.testAndSet(U.denseIndex()))
              ++NumEntry;
          });
          for (const InstRef &Ctrl : FD.controlSources(I)) {
            if (Cold(FI, Ctrl.Block))
              continue;
            if (Members.testAndSet(Index.id(Ctrl))) {
              ++NumMembers;
              Work.push_back(Ctrl);
            }
          }
        }
        if (NumMembers != OldMembers || NumEntry != OldEntry) {
          Changed = true;
          Info.Insts.clear();
          Members.forEachSetBit([&](size_t Id) {
            Info.Insts.push_back(Index.ref(static_cast<uint32_t>(Id)));
          });
          Info.EntryDeps.clear();
          Entry.forEachSetBit([&](size_t Dense) {
            Info.EntryDeps.push_back(
                regFromDenseIndex(static_cast<unsigned>(Dense)));
          });
        }
      }
    }
  }
  return Tab;
}

} // namespace

TEST(Slicer, SummariesMatchReseedingReference) {
  size_t Regs = 0, CappedRegs = 0;
  for (const tests::CorpusProgram &C : tests::differentialCorpus()) {
    SCOPED_TRACE(C.Name);
    ProgramDeps Deps(C.P);
    RegionGraph RG = RegionGraph::build(Deps);
    CallGraph CG =
        CallGraph::build(C.P, C.PD.IndirectTargets, C.PD.CallSiteCounts);
    for (bool Speculative : {true, false}) {
      SCOPED_TRACE(Speculative ? "speculative" : "static");
      SliceOptions Opts;
      Opts.Speculative = Speculative;
      Slicer S(Deps, RG, CG, C.PD, Opts);
      std::vector<FuncSummary> Ref =
          reseedingSummaries(Deps, C.PD, Speculative);
      for (uint32_t FI = 0; FI < C.P.numFuncs(); ++FI) {
        const FuncSummary &Sum = S.summaryOf(FI);
        const std::string &Name = C.P.func(FI).getName();
        ASSERT_TRUE(Sum.Defined == Ref[FI].Defined) << Name;
        for (unsigned Dense = 0; Dense < Reg::NumDenseIndices; ++Dense) {
          const FuncSummary::RegInfo &Got = Sum.DefinedRegs[Dense];
          const FuncSummary::RegInfo &Want = Ref[FI].DefinedRegs[Dense];
          ASSERT_EQ(Got.Insts, Want.Insts)
              << Name << " " << regFromDenseIndex(Dense).str();
          ASSERT_EQ(Got.EntryDeps, Want.EntryDeps)
              << Name << " " << regFromDenseIndex(Dense).str();
          Regs += !Want.Insts.empty();
          CappedRegs += Want.Insts.size() > 200;
        }
      }
    }
  }
  // Some summaries pass the size cap, where each further def adds only
  // itself.
  EXPECT_GT(Regs, 1000u);
  EXPECT_GT(CappedRegs, 0u);
}
