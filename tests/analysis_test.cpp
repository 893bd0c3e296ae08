//===- tests/analysis_test.cpp - Unit tests for program analyses ----------===//

#include "analysis/CFG.h"
#include "analysis/CallGraph.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Dominators.h"
#include "analysis/Loops.h"
#include "analysis/RegionGraph.h"
#include "analysis/SCC.h"
#include "ir/IRBuilder.h"

#include "DifferentialCorpus.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::analysis;

namespace {

/// A diamond with a loop on one arm:
///   bb0: entry (br -> bb4 taken / bb1 fallthrough)
///   bb1: loop header+body (self loop, falls to bb2)
///   bb2: join; bb3: exit(ret)   bb4: other arm -> jmp bb2
Program makeDiamondLoop() {
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  uint32_t B0 = B.createBlock("entry");
  uint32_t B1 = B.createBlock("loop");
  uint32_t B2 = B.createBlock("join");
  uint32_t B3 = B.createBlock("exit");
  uint32_t B4 = B.createBlock("arm");

  B.setInsertPoint(B0);
  B.movI(ireg(1), 0);
  B.cmpI(CondCode::EQ, preg(1), ireg(1), 7);
  B.br(preg(1), B4); // Falls through to the loop.

  B.setInsertPoint(B1);
  B.addI(ireg(1), ireg(1), 1);
  B.cmpI(CondCode::LT, preg(2), ireg(1), 10);
  B.br(preg(2), B1); // Self loop; falls through to join.

  B.setInsertPoint(B2);
  B.movI(ireg(2), 5);

  B.setInsertPoint(B3);
  B.ret();

  B.setInsertPoint(B4);
  B.movI(ireg(3), 9);
  B.jmp(B2);

  P.setEntry(0);
  return P;
}

} // namespace

TEST(CFG, SuccessorsAndPredecessors) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  EXPECT_EQ(G.succs(0).size(), 2u); // Branch: arm + loop.
  EXPECT_EQ(G.succs(1).size(), 2u); // Self loop + join.
  EXPECT_EQ(G.preds(2).size(), 2u); // Loop + arm.
  ASSERT_EQ(G.exits().size(), 1u);
  EXPECT_EQ(G.exits()[0], 3u);
}

TEST(CFG, RPOStartsAtEntry) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  ASSERT_FALSE(G.rpo().empty());
  EXPECT_EQ(G.rpo().front(), 0u);
  EXPECT_EQ(G.rpoIndex(0), 0u);
}

TEST(Dominators, EntryDominatesAll) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  DomTree D = DomTree::buildDominators(G);
  for (uint32_t B = 0; B < G.numBlocks(); ++B)
    EXPECT_TRUE(D.dominates(0, B)) << "block " << B;
}

TEST(Dominators, ArmsDoNotDominateJoin) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  DomTree D = DomTree::buildDominators(G);
  EXPECT_FALSE(D.dominates(1, 2));
  EXPECT_FALSE(D.dominates(4, 2));
  EXPECT_EQ(D.idom(2), 0u);
}

TEST(PostDominators, ExitPostDominatesAll) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  DomTree PD = DomTree::buildPostDominators(G);
  for (uint32_t B = 0; B < G.numBlocks(); ++B)
    EXPECT_TRUE(PD.dominates(3, B)) << "exit must post-dominate block "
                                    << B;
}

TEST(PostDominators, ArmsDoNotPostDominateEntry) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  DomTree PD = DomTree::buildPostDominators(G);
  EXPECT_FALSE(PD.dominates(1, 0));
  EXPECT_FALSE(PD.dominates(4, 0));
  EXPECT_TRUE(PD.dominates(2, 0)) << "the join post-dominates the entry";
}

TEST(ControlDependence, ArmsDependOnEntryBranch) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  auto CD = controlDependence(G);
  // Both arms are control dependent on the entry branch (block 0).
  EXPECT_NE(std::find(CD[1].begin(), CD[1].end(), 0u), CD[1].end());
  EXPECT_NE(std::find(CD[4].begin(), CD[4].end(), 0u), CD[4].end());
  // The join is not (it executes regardless).
  EXPECT_EQ(std::find(CD[2].begin(), CD[2].end(), 0u), CD[2].end());
}

TEST(ControlDependence, LoopBodyDependsOnItsLatch) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  auto CD = controlDependence(G);
  // The self-looping block is control dependent on its own branch.
  EXPECT_NE(std::find(CD[1].begin(), CD[1].end(), 1u), CD[1].end());
}

TEST(Loops, FindsSelfLoop) {
  Program P = makeDiamondLoop();
  CFG G = CFG::build(P.func(0));
  DomTree D = DomTree::buildDominators(G);
  LoopInfo LI = LoopInfo::build(G, D);
  ASSERT_EQ(LI.numLoops(), 1u);
  EXPECT_EQ(LI.loop(0).Header, 1u);
  EXPECT_TRUE(LI.loop(0).contains(1));
  EXPECT_FALSE(LI.loop(0).contains(2));
  EXPECT_EQ(LI.innermostLoopOf(1), 0);
  EXPECT_EQ(LI.innermostLoopOf(2), -1);
}

TEST(Loops, NestedLoopsHaveDepths) {
  // outer: bb1 contains inner bb2.
  Program P;
  IRBuilder B(P);
  B.createFunction("f");
  uint32_t B0 = B.createBlock("entry");
  uint32_t B1 = B.createBlock("outer");
  uint32_t B2 = B.createBlock("inner");
  uint32_t B3 = B.createBlock("outer.latch");
  uint32_t B4 = B.createBlock("exit");
  B.setInsertPoint(B0);
  B.movI(ireg(1), 0);
  // Falls to outer.
  B.setInsertPoint(B1);
  B.movI(ireg(2), 0);
  B.setInsertPoint(B2);
  B.addI(ireg(2), ireg(2), 1);
  B.cmpI(CondCode::LT, preg(1), ireg(2), 4);
  B.br(preg(1), B2);
  B.setInsertPoint(B3);
  B.addI(ireg(1), ireg(1), 1);
  B.cmpI(CondCode::LT, preg(2), ireg(1), 4);
  B.br(preg(2), B1);
  B.setInsertPoint(B4);
  B.ret();
  P.setEntry(0);

  CFG G = CFG::build(P.func(0));
  DomTree D = DomTree::buildDominators(G);
  LoopInfo LI = LoopInfo::build(G, D);
  ASSERT_EQ(LI.numLoops(), 2u);
  // The inner loop is the innermost for block 2.
  int Inner = LI.innermostLoopOf(2);
  ASSERT_GE(Inner, 0);
  EXPECT_EQ(LI.loop(Inner).Header, 2u);
  EXPECT_EQ(LI.loop(Inner).Depth, 2u);
  EXPECT_GE(LI.loop(Inner).Parent, 0);
}

TEST(ReachingDefs, FindsLoopCarriedAndInit) {
  Program P = makeDiamondLoop();
  FunctionDeps FD(P, 0);
  // Use of r1 in the loop's addI: producers are the entry movI and the
  // addI itself (around the back edge).
  InstRef AddI{0, 1, 0};
  std::vector<InstRef> Defs;
  std::vector<uint32_t> Scratch;
  FD.reachingDefs().forEachReachingDef(
      1, 0, ireg(1), Scratch, [&](const InstRef &D) { Defs.push_back(D); });
  EXPECT_EQ(Defs.size(), 2u);
  (void)AddI;
}

TEST(ReachingDefs, LiveInAtEntry) {
  Program P = makeDiamondLoop();
  FunctionDeps FD(P, 0);
  // r9 is never defined: any use would be a live-in from the caller.
  EXPECT_TRUE(FD.reachingDefs().mayBeLiveIn(0, 0, ireg(9)));
  // r1 at the join is always defined on both paths.
  EXPECT_FALSE(FD.reachingDefs().mayBeLiveIn(2, 0, ireg(1)));
}

namespace {

/// The reaching-definitions analysis as it was before queries used
/// per-block def ranges: the transfer function kills every def of a
/// register once per def of it in the block, and a query walks the block
/// and rescans the register's defs for each redefinition it meets. Kept
/// as the reference the current analysis must match exactly.
struct BlockWalkReachingDefs {
  const Program *Prog = nullptr;
  uint32_t Func = 0;
  std::vector<InstRef> Defs;
  std::vector<std::vector<uint32_t>> DefsOfReg;
  std::vector<support::BitVector> In;
  std::vector<support::BitVector> EntryReachesIn;

  BlockWalkReachingDefs(const Program &P, uint32_t Func, const CFG &G)
      : Prog(&P), Func(Func) {
    const Function &F = P.func(Func);
    DefsOfReg.resize(Reg::NumDenseIndices);
    for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
      const BasicBlock &BB = F.block(BI);
      if (BB.isAttachment())
        continue;
      for (uint32_t II = 0; II < BB.Insts.size(); ++II) {
        Reg D = BB.Insts[II].def();
        if (!D.isValid())
          continue;
        DefsOfReg[D.denseIndex()].push_back(
            static_cast<uint32_t>(Defs.size()));
        Defs.push_back({Func, BI, II});
      }
    }

    size_t NumDefs = Defs.size();
    size_t NumBlocks = F.numBlocks();
    In.resize(NumBlocks);
    EntryReachesIn.resize(NumBlocks);
    std::vector<support::BitVector> Out(NumBlocks), EntryReachesOut(NumBlocks);
    for (size_t B = 0; B < NumBlocks; ++B) {
      In[B].resize(NumDefs);
      Out[B].resize(NumDefs);
      EntryReachesIn[B].resize(Reg::NumDenseIndices);
      EntryReachesOut[B].resize(Reg::NumDenseIndices);
    }
    for (unsigned R = 0; R < Reg::NumDenseIndices; ++R)
      EntryReachesIn[G.entry()].set(R);

    auto Transfer = [&](uint32_t BI, support::BitVector &OutSet,
                        support::BitVector &EntryOut) {
      OutSet = In[BI];
      EntryOut = EntryReachesIn[BI];
      const BasicBlock &BB = F.block(BI);
      uint32_t DefCursor = 0;
      while (DefCursor < Defs.size() && Defs[DefCursor].Block != BI)
        ++DefCursor;
      for (uint32_t II = 0; II < BB.Insts.size(); ++II) {
        Reg D = BB.Insts[II].def();
        if (!D.isValid())
          continue;
        for (uint32_t Killed : DefsOfReg[D.denseIndex()])
          OutSet.reset(Killed);
        OutSet.set(DefCursor);
        ++DefCursor;
        EntryOut.reset(D.denseIndex());
      }
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t BI : G.rpo()) {
        for (uint32_t Pred : G.preds(BI)) {
          Changed |= In[BI].unionWith(Out[Pred]);
          Changed |= EntryReachesIn[BI].unionWith(EntryReachesOut[Pred]);
        }
        support::BitVector NewOut(NumDefs),
            NewEntryOut(Reg::NumDenseIndices);
        Transfer(BI, NewOut, NewEntryOut);
        Changed |= Out[BI].unionWith(NewOut);
        Changed |= EntryReachesOut[BI].unionWith(NewEntryOut);
      }
    }
  }

  /// Reaching defs of \p R before (\p Block, \p Inst); sets \p LiveIn.
  std::vector<InstRef> query(uint32_t Block, uint32_t Inst, Reg R,
                             bool &LiveIn) const {
    const BasicBlock &BB = Prog->func(Func).block(Block);
    unsigned Dense = R.denseIndex();
    LiveIn = EntryReachesIn[Block].test(Dense);
    std::vector<uint32_t> Live;
    for (uint32_t Id : DefsOfReg[Dense])
      if (In[Block].test(Id))
        Live.push_back(Id);
    for (uint32_t II = 0; II < Inst && II < BB.Insts.size(); ++II) {
      Reg D = BB.Insts[II].def();
      if (!D.isValid() || D.denseIndex() != Dense)
        continue;
      Live.clear();
      LiveIn = false;
      for (uint32_t Id : DefsOfReg[Dense])
        if (Defs[Id].Block == Block && Defs[Id].Inst == II)
          Live.push_back(Id);
    }
    std::vector<InstRef> Result;
    for (uint32_t Id : Live)
      Result.push_back(Defs[Id]);
    return Result;
  }
};

} // namespace

TEST(ReachingDefs, MatchesBlockWalkReference) {
  size_t Queries = 0, AttachmentRedefs = 0;
  std::vector<uint32_t> Scratch;
  for (const tests::CorpusProgram &C : tests::differentialCorpus()) {
    SCOPED_TRACE(C.Name);
    for (uint32_t FI = 0; FI < C.P.numFuncs(); ++FI) {
      const Function &F = C.P.func(FI);
      CFG G = CFG::build(F);
      ReachingDefs RD = ReachingDefs::build(C.P, FI, G);
      BlockWalkReachingDefs Ref(C.P, FI, G);
      ASSERT_EQ(RD.allDefs(), Ref.Defs) << F.getName();
      for (unsigned Dense = 0; Dense < Reg::NumDenseIndices; ++Dense)
        ASSERT_EQ(RD.defIdsOf(Dense), Ref.DefsOfReg[Dense]) << F.getName();

      size_t Mismatches = 0;
      for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
        const BasicBlock &BB = F.block(BI);
        for (uint32_t II = 0; II < BB.Insts.size(); ++II) {
          BB.Insts[II].forEachUse([&](Reg U) {
            bool WantLiveIn = false;
            std::vector<InstRef> Want = Ref.query(BI, II, U, WantLiveIn);
            std::vector<InstRef> Got;
            bool LiveIn = RD.forEachReachingDef(
                BI, II, U, Scratch,
                [&](const InstRef &D) { Got.push_back(D); });
            ++Queries;
            if (BB.isAttachment())
              for (uint32_t Prev = 0; Prev < II; ++Prev)
                if (BB.Insts[Prev].def() == U) {
                  ++AttachmentRedefs;
                  break;
                }
            if (Got == Want && LiveIn == WantLiveIn &&
                RD.mayBeLiveIn(BI, II, U) == WantLiveIn)
              return;
            if (++Mismatches <= 5)
              ADD_FAILURE() << F.getName() << " bb" << BI << " inst " << II
                            << " use " << U.str() << ": " << Got.size()
                            << " reaching defs (want " << Want.size()
                            << "), live-in " << LiveIn << " (want "
                            << WantLiveIn << ")";
          });
        }
      }
      ASSERT_EQ(Mismatches, 0u) << F.getName();
    }
  }
  // The corpus includes uses in attachment blocks after a redefinition
  // there, which reach no def and no entry value.
  EXPECT_GT(Queries, 50000u);
  EXPECT_GT(AttachmentRedefs, 0u);
}

TEST(DependenceGraph, CarriedVsIntra) {
  Program P = makeDiamondLoop();
  FunctionDeps FD(P, 0);
  const Loop &L = FD.loops().loop(0);
  InstRef AddI{0, 1, 0}, Cmp{0, 1, 1};
  // addI -> cmp within the same iteration.
  EXPECT_TRUE(FD.reachesWithoutBackedge(AddI, Cmp, L));
  // cmp -> addI only around the back edge.
  EXPECT_FALSE(FD.reachesWithoutBackedge(Cmp, AddI, L));
}

TEST(SCC, FindsCycleAndSingletons) {
  // 0 -> 1 -> 2 -> 0 cycle; 3 isolated; 2 -> 3 edge.
  std::vector<std::vector<unsigned>> Adj = {{1}, {2}, {0, 3}, {}};
  auto Comps = stronglyConnectedComponents(4, Adj);
  ASSERT_EQ(Comps.size(), 2u);
  // Tarjan emits the sink component (3) first.
  EXPECT_EQ(Comps[0], std::vector<unsigned>({3}));
  EXPECT_EQ(Comps[1], std::vector<unsigned>({0, 1, 2}));
}

TEST(SCC, ChainIsAllSingletons) {
  std::vector<std::vector<unsigned>> Adj = {{1}, {2}, {}};
  auto Comps = stronglyConnectedComponents(3, Adj);
  EXPECT_EQ(Comps.size(), 3u);
}

TEST(CallGraph, DirectAndIndirectEdges) {
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  B.createBlock("entry");
  B.call(1);
  B.callInd(ireg(5));
  B.halt();
  B.createFunction("callee");
  B.createBlock("entry");
  B.ret();
  B.createFunction("target");
  B.createBlock("entry");
  B.ret();
  P.setEntry(0);

  std::vector<IndirectCallTarget> Indirect = {{{0, 0, 1}, 2, 42}};
  CallGraph CG = CallGraph::build(P, Indirect, {{{0, 0, 0}, 7}});
  ASSERT_EQ(CG.callersOf(1).size(), 1u);
  EXPECT_EQ(CG.callersOf(1)[0].Count, 7u);
  ASSERT_EQ(CG.callersOf(2).size(), 1u);
  EXPECT_EQ(CG.callersOf(2)[0].Count, 42u);
  EXPECT_EQ(CG.callSitesIn(0).size(), 2u);
}

TEST(RegionGraph, LoopsNestInProcedures) {
  Program P = makeDiamondLoop();
  ProgramDeps Deps(P);
  RegionGraph RG = RegionGraph::build(Deps);
  // One procedure region + one loop region.
  EXPECT_EQ(RG.numRegions(), 2u);
  int Proc = RG.procedureRegion(0);
  InstRef InLoop{0, 1, 0};
  int Inner = RG.innermostRegionOf(InLoop, Deps);
  EXPECT_NE(Inner, Proc);
  EXPECT_TRUE(RG.region(Inner).isLoop());
  EXPECT_EQ(RG.region(Inner).Parent, Proc);
}
