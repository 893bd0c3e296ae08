//===- tests/sim_test.cpp - Unit tests for the SMT simulator --------------===//
//
// Includes a hand-adapted chaining-SP program (the paper's Figure 5 shape)
// that exercises chk.c triggers, stub blocks, the live-in buffer, chained
// spawns and prefetch visibility across hardware thread contexts.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "mem/SimMemory.h"
#include "sim/Run.h"
#include "support/RNG.h"

#include "StructuralCheck.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::sim;

namespace {

constexpr uint64_t ArcBase = 0x100000;
constexpr uint64_t ArcSize = 64;
constexpr unsigned NumArcs = 800;
constexpr uint64_t NodeBase = 0x4000000;
constexpr uint64_t NodeStride = 64;
constexpr unsigned NumNodes = 1 << 16; // 4 MiB of node lines > 3 MiB L3.
constexpr uint64_t ResultAddr = mem::ResultAddr;

/// Builds the data image: an arc array whose `tail` pointers scatter into a
/// node array larger than the L3 cache, defeating locality.
uint64_t buildArcData(mem::SimMemory &Mem) {
  RNG Rng(1234);
  uint64_t ExpectedSum = 0;
  for (unsigned I = 0; I < NumNodes; ++I)
    Mem.write(NodeBase + static_cast<uint64_t>(I) * NodeStride, I * 3 + 1);
  for (unsigned I = 0; I < NumArcs; ++I) {
    uint64_t Arc = ArcBase + static_cast<uint64_t>(I) * ArcSize;
    uint64_t Node =
        NodeBase + Rng.nextBelow(NumNodes) * NodeStride;
    Mem.write(Arc + 8, Node); // tail pointer.
    ExpectedSum += Mem.read(Node);
  }
  Mem.write(ResultAddr, 0);
  return ExpectedSum;
}

/// Arc-scan loop modeled on mcf's primal_bea_mpp (the paper's Figure 3):
///   do { t = arc; u = t->tail; sum += u->potential; <filler work>;
///        arc += ArcSize; } while (arc < K);
/// \p WithSSP attaches a hand-written chaining p-slice per Figure 5(b).
Program buildArcProgram(bool WithSSP) {
  Program P;
  IRBuilder B(P);
  B.createFunction("main");
  uint32_t Entry = B.createBlock("entry");
  uint32_t Loop = B.createBlock("loop");
  uint32_t Exit = B.createBlock("exit");
  uint32_t Stub = 0, SliceHdr = 0, SlicePref = 0, SliceSpawn = 0;
  if (WithSSP) {
    Stub = B.createBlock("stub", BlockKind::Stub);
    SliceHdr = B.createBlock("slice.hdr", BlockKind::Slice);
    SlicePref = B.createBlock("slice.pref", BlockKind::Slice);
    SliceSpawn = B.createBlock("slice.spawn", BlockKind::Slice);
  }

  const Reg Arc = ireg(1), Sum = ireg(2), Tail = ireg(3), K = ireg(4),
            Val = ireg(6), Tmp = ireg(10), ResBase = ireg(11);
  const Reg Cont = preg(1);

  B.setInsertPoint(Entry);
  B.movI(Arc, ArcBase);
  B.movI(Sum, 0);
  B.movI(K, ArcBase + static_cast<uint64_t>(NumArcs) * ArcSize);
  B.movI(ResBase, ResultAddr);
  B.jmp(Loop);

  B.setInsertPoint(Loop);
  if (WithSSP)
    B.chkC(Stub);
  else
    B.nop(); // The slot the post-pass tool would replace.
  B.load(Tail, Arc, 8);
  B.load(Val, Tail, 0);
  B.add(Sum, Sum, Val);
  // Filler work: the main thread does much more per iteration than the
  // p-slice, which is what gives the speculative thread slack.
  B.movI(Tmp, 1);
  for (int I = 0; I < 10; ++I)
    B.add(Tmp, Tmp, Val);
  B.xor_(Tmp, Tmp, Sum);
  B.addI(Arc, Arc, ArcSize);
  B.cmp(CondCode::LT, Cont, Arc, K);
  B.br(Cont, Loop);

  B.setInsertPoint(Exit);
  B.store(ResBase, 0, Sum);
  B.halt();

  if (WithSSP) {
    // Stub: copy live-ins {arc, K} into the LIB and spawn the first
    // chaining thread, then return to the interrupted instruction.
    B.setInsertPoint(Stub);
    B.copyToLIB(0, Arc);
    B.copyToLIB(1, K);
    B.spawn(SliceHdr);
    B.rfi();

    // Chaining slice (Figure 5(b)): the critical sub-slice {arc += ...;
    // if (arc < K) spawn} runs before the loads so the next chaining
    // thread starts immediately.
    const Reg SArc = ireg(20), SK = ireg(21), SNext = ireg(22),
              STail = ireg(23);
    const Reg SCont = preg(2);
    B.setInsertPoint(SliceHdr);
    B.copyFromLIB(SArc, 0);
    B.copyFromLIB(SK, 1);
    B.addI(SNext, SArc, ArcSize);
    B.copyToLIB(0, SNext);
    B.copyToLIB(1, SK);
    B.cmp(CondCode::LT, SCont, SNext, SK);
    B.br(SCont, SliceSpawn);

    B.setInsertPoint(SlicePref); // Fall-through: last iteration.
    B.load(STail, SArc, 8);
    B.prefetch(STail, 0);
    B.killThread();

    B.setInsertPoint(SliceSpawn);
    B.spawn(SliceHdr);
    B.load(STail, SArc, 8);
    B.prefetch(STail, 0);
    B.killThread();
  }

  P.setEntry(0);
  return P;
}

SimStats runArcProgram(bool WithSSP, MachineConfig Cfg,
                       uint64_t *ExpectedSum = nullptr,
                       uint64_t *GotSum = nullptr) {
  Program P = buildArcProgram(WithSSP);
  EXPECT_TRUE(tests::wellFormed(P));
  uint64_t Want = 0;
  RunOutcome Out = runProgram(
      LinkedProgram::link(P),
      [&Want](mem::SimMemory &Mem) { return Want = buildArcData(Mem); },
      Cfg);
  if (ExpectedSum)
    *ExpectedSum = Want;
  if (GotSum) {
    EXPECT_TRUE(Out.Result.has_value());
    *GotSum = Out.Result.value_or(0);
  }
  return Out.Stats;
}

} // namespace

TEST(Simulator, BaselineComputesCorrectSum) {
  uint64_t Want = 0, Got = 0;
  SimStats S = runArcProgram(false, MachineConfig::inOrder(), &Want, &Got);
  EXPECT_EQ(Got, Want);
  EXPECT_GT(S.Cycles, 0u);
  EXPECT_GT(S.MainInsts, static_cast<uint64_t>(NumArcs) * 10);
  EXPECT_EQ(S.SpecInsts, 0u);
  EXPECT_EQ(S.TriggersFired, 0u);
}

TEST(Simulator, DeterministicCycleCounts) {
  SimStats A = runArcProgram(false, MachineConfig::inOrder());
  SimStats B = runArcProgram(false, MachineConfig::inOrder());
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.MainInsts, B.MainInsts);
}

TEST(Simulator, SSPSpawnsThreadsAndPreservesResult) {
  uint64_t Want = 0, Got = 0;
  SimStats S = runArcProgram(true, MachineConfig::inOrder(), &Want, &Got);
  EXPECT_EQ(Got, Want) << "speculation must not alter architectural state";
  EXPECT_GT(S.TriggersFired, 0u);
  EXPECT_GT(S.SpawnsSucceeded, 0u);
  EXPECT_GT(S.SpecInsts, 0u);
}

TEST(Simulator, SSPSpeedsUpInOrder) {
  SimStats Base = runArcProgram(false, MachineConfig::inOrder());
  SimStats Ssp = runArcProgram(true, MachineConfig::inOrder());
  EXPECT_LT(Ssp.Cycles, Base.Cycles)
      << "chaining SP should speed up the in-order pipeline";
}

TEST(Simulator, OOOComputesCorrectSum) {
  uint64_t Want = 0, Got = 0;
  SimStats S = runArcProgram(false, MachineConfig::outOfOrder(), &Want, &Got);
  EXPECT_EQ(Got, Want);
  EXPECT_GT(S.Cycles, 0u);
}

TEST(Simulator, OOOFasterThanInOrderOnMemoryBoundCode) {
  SimStats IO = runArcProgram(false, MachineConfig::inOrder());
  SimStats OOO = runArcProgram(false, MachineConfig::outOfOrder());
  EXPECT_LT(OOO.Cycles, IO.Cycles);
}

TEST(Simulator, OOOWithSSPPreservesResult) {
  uint64_t Want = 0, Got = 0;
  SimStats S = runArcProgram(true, MachineConfig::outOfOrder(), &Want, &Got);
  EXPECT_EQ(Got, Want);
  EXPECT_GT(S.SpawnsSucceeded, 0u);
}

TEST(Simulator, PerfectMemoryIsMuchFaster) {
  MachineConfig Ideal = MachineConfig::inOrder();
  Ideal.PerfectMemory = true;
  SimStats Base = runArcProgram(false, MachineConfig::inOrder());
  SimStats Perfect = runArcProgram(false, Ideal);
  EXPECT_LT(Perfect.Cycles * 2, Base.Cycles)
      << "this workload must be strongly memory bound";
}

TEST(Simulator, CycleCategoriesSumToTotal) {
  SimStats S = runArcProgram(false, MachineConfig::inOrder());
  uint64_t Sum = 0;
  for (unsigned I = 0; I < NumCycleCats; ++I)
    Sum += S.CatCycles[I];
  EXPECT_EQ(Sum, S.Cycles);
}

TEST(Simulator, MemoryBoundLoopStallsDominatedByL3Misses) {
  SimStats S = runArcProgram(false, MachineConfig::inOrder());
  // The node array misses all cache levels, so the "L3" category (stalled
  // on loads served by memory) must dominate.
  uint64_t L3Cat = S.CatCycles[static_cast<unsigned>(CycleCat::L3)];
  EXPECT_GT(L3Cat * 2, S.Cycles);
}

TEST(Simulator, SSPReducesDelinquentMissCycles) {
  SimStats Base = runArcProgram(false, MachineConfig::inOrder());
  SimStats Ssp = runArcProgram(true, MachineConfig::inOrder());
  auto MissCycles = [](const SimStats &S) {
    uint64_t Total = 0;
    for (const auto &KV : S.LoadProfile)
      Total += KV.second.MissCycles;
    return Total;
  };
  EXPECT_LT(MissCycles(Ssp), MissCycles(Base));
}

TEST(Simulator, SpeculativeThreadsNeverExceedContexts) {
  SimStats S = runArcProgram(true, MachineConfig::inOrder());
  // With 4 contexts, at most 3 speculative threads can ever be live; the
  // simulator would have fataled on an over-allocation. Spawns that found
  // no context must be dropped, not queued.
  EXPECT_GE(S.SpawnsSucceeded + S.SpawnsDropped,
            S.SpawnsSucceeded);
  SUCCEED();
}

TEST(Simulator, ProfileIdentifiesDelinquentLoad) {
  SimStats S = runArcProgram(false, MachineConfig::inOrder());
  // The tail->potential load (function 0) must account for most miss
  // cycles. Find the top PC by miss cycles and check dominance.
  uint64_t Total = 0, Top = 0;
  for (const auto &KV : S.LoadProfile)
    Total += KV.second.MissCycles;
  for (const auto &KV : S.LoadProfile)
    Top = std::max(Top, KV.second.MissCycles);
  ASSERT_GT(Total, 0u);
  EXPECT_GT(Top * 10, Total * 4) << "one load should dominate miss cycles";
}

// Prefetch-lifecycle attribution (the obs layer's always-on rollup): every
// useful prefetch is exactly one of the two useful fates, so the audited
// invariant UsefulPrefetches == useful-timely + useful-late holds — no
// speculative access is credited twice (double-prefetch-then-one-use
// resolves the superseded entry as redundant; an evicted line refetched
// from memory earns no credit).
TEST(Simulator, PrefetchAttributionInvariants) {
  for (auto Pipe : {PipelineKind::InOrder, PipelineKind::OutOfOrder}) {
    for (bool Skip : {true, false}) {
      SCOPED_TRACE((Pipe == PipelineKind::InOrder ? "in-order" : "ooo") +
                   std::string(Skip ? " skip" : " no-skip"));
      MachineConfig Cfg = Pipe == PipelineKind::InOrder
                              ? MachineConfig::inOrder()
                              : MachineConfig::outOfOrder();
      Cfg.SkipIdleCycles = Skip;
      SimStats S = runArcProgram(true, Cfg);
      ASSERT_FALSE(S.Attribution.empty());
      uint64_t Useful = 0, Attributed = 0;
      for (const PrefetchAttribution &A : S.Attribution) {
        EXPECT_NE(A.Trigger, 0u);
        EXPECT_NE(A.Slice, 0u);
        EXPECT_GT(A.Spawns, 0u);
        Useful += A.useful();
        Attributed += A.prefetches();
      }
      EXPECT_EQ(Useful, S.UsefulPrefetches);
      EXPECT_EQ(Attributed, S.attributedPrefetches());
      // Every access from a trigger-attributed thread lands in the rollup;
      // the hand-adapted arc program spawns only via its chk.c trigger.
      EXPECT_EQ(Attributed, S.SpecPrefetches);
      EXPECT_GT(Attributed, 0u);
    }
  }
}

// The attribution rollup is itself deterministic and identical across the
// skip and no-skip schedulers (its inputs are all skip-invariant).
TEST(Simulator, PrefetchAttributionSkipInvariant) {
  MachineConfig Skip = MachineConfig::inOrder();
  MachineConfig NoSkip = MachineConfig::inOrder();
  NoSkip.SkipIdleCycles = false;
  SimStats A = runArcProgram(true, Skip);
  SimStats B = runArcProgram(true, NoSkip);
  ASSERT_EQ(A.Attribution.size(), B.Attribution.size());
  for (size_t I = 0; I < A.Attribution.size(); ++I) {
    const PrefetchAttribution &X = A.Attribution[I];
    const PrefetchAttribution &Y = B.Attribution[I];
    EXPECT_EQ(X.Trigger, Y.Trigger);
    EXPECT_EQ(X.Slice, Y.Slice);
    EXPECT_EQ(X.Spawns, Y.Spawns);
    EXPECT_EQ(X.MaxChainDepth, Y.MaxChainDepth);
    for (unsigned F = 0; F < NumPrefetchFates; ++F)
      EXPECT_EQ(X.Fates[F], Y.Fates[F]) << prefetchFateName(
          static_cast<PrefetchFate>(F));
  }
}
