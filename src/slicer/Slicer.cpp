//===- slicer/Slicer.cpp - Slicing for speculative precomputation ---------===//

#include "slicer/Slicer.h"

#include "sim/ThreadContext.h"
#include "support/Assert.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>

using namespace ssp;
using namespace ssp::slicer;
using namespace ssp::analysis;
using namespace ssp::ir;

Slicer::Slicer(const ProgramDeps &Deps, const RegionGraph &RG,
               const CallGraph &CG, const profile::ProfileData &PD,
               SliceOptions Opts, const SpecDeps *Spec)
    : Deps(Deps), RG(RG), CG(CG), PD(PD), Opts(Opts), Spec(Spec) {}

bool Slicer::blockIsCold(uint32_t Func, uint32_t Block) const {
  if (!Opts.Speculative)
    return false;
  return PD.blockCount(Func, Block) == 0;
}

bool Slicer::regionContains(int RegionIdx, uint32_t Func,
                            uint32_t Block) const {
  const Region &R = RG.region(RegionIdx);
  if (R.Func != Func)
    return false;
  if (R.Kind == RegionKind::Procedure)
    return true;
  return Deps.forFunction(Func).loops().loop(R.LoopIdx).contains(Block);
}

//===----------------------------------------------------------------------===//
// Callee summaries (Section 3.1.1): one closure pass per register.
//===----------------------------------------------------------------------===//

namespace {

/// Size cap for one register's summary slice; beyond this the summary is
/// truncated (the slice using it will then exceed its own cap and be
/// rejected, which matches the paper's guard against oversized slices).
constexpr size_t SummaryRegCap = 200;

/// Sorted-unique union into \p A. Inputs need not be sorted; the result is
/// sorted, matching the std::set-based union this replaces.
template <typename T>
void unionInPlace(std::vector<T> &A, const std::vector<T> &B) {
  A.insert(A.end(), B.begin(), B.end());
  std::sort(A.begin(), A.end());
  A.erase(std::unique(A.begin(), A.end()), A.end());
}

} // namespace

void Slicer::computeSummaries() {
  const Program &P = Deps.program();
  const InstIndex &Index = Deps.instIndex();
  std::vector<FuncSummary> Tab(P.numFuncs());

  // Closure state of one register, kept across its defs: membership bits
  // over dense program-wide instruction ids (Touched lists the set ones,
  // in insertion order) and over dense register indices.
  support::BitVector Members(Index.numInsts());
  support::BitVector Entry(Reg::NumDenseIndices);
  std::vector<uint32_t> Touched;
  std::deque<InstRef> Work;
  auto Add = [&](const InstRef &I) {
    uint32_t Id = Index.id(I);
    if (Members.testAndSet(Id)) {
      Touched.push_back(Id);
      Work.push_back(I);
    }
  };

  // A summary's closure follows reaching defs and control dependences
  // inside its own function and never reads another summary, so one pass
  // over each function's registers is final, recursion included.
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    const FunctionDeps &FD = Deps.forFunction(FI);
    const ReachingDefs &RD = FD.reachingDefs();
    FuncSummary &Sum = Tab[FI];
    Sum.DefinedRegs.resize(Reg::NumDenseIndices);
    Sum.Defined.resize(Reg::NumDenseIndices);

    for (unsigned Dense = 0; Dense < Reg::NumDenseIndices; ++Dense) {
      // Each warm def of the register, in layout order, extends the
      // register's closure; past SummaryRegCap a def adds only itself.
      for (uint32_t DefId : RD.defIdsOf(Dense)) {
        const InstRef &Def = RD.allDefs()[DefId];
        if (blockIsCold(FI, Def.Block))
          continue;
        Work.clear();
        Add(Def);
        while (!Work.empty()) {
          InstRef I = Work.front();
          Work.pop_front();
          if (Touched.size() > SummaryRegCap)
            break;
          I.get(P).forEachUse([&](Reg U) {
            if ((U.isInt() || U.isPred()) && U.Num == 0)
              return;
            bool LiveIn = RD.forEachReachingDef(
                I.Block, I.Inst, U, RDScratch, [&](const InstRef &Prod) {
                  if (!blockIsCold(FI, Prod.Block))
                    Add(Prod);
                });
            if (LiveIn)
              Entry.set(U.denseIndex());
          });
          for (const InstRef &Ctrl : FD.controlSources(I))
            if (!blockIsCold(FI, Ctrl.Block))
              Add(Ctrl);
        }
      }
      if (Touched.empty())
        continue;

      Sum.Defined.set(Dense);
      FuncSummary::RegInfo &Info = Sum.DefinedRegs[Dense];
      std::sort(Touched.begin(), Touched.end());
      Info.Insts.reserve(Touched.size());
      for (uint32_t Id : Touched) {
        Info.Insts.push_back(Index.ref(Id));
        Members.reset(Id);
      }
      Touched.clear();
      Entry.forEachSetBit([&](size_t E) {
        Info.EntryDeps.push_back(regFromDenseIndex(static_cast<unsigned>(E)));
      });
      Entry.clearAll();
    }
  }
  Summaries =
      std::make_shared<const std::vector<FuncSummary>>(std::move(Tab));
}

void Slicer::ensureSummaries() {
  if (!Summaries)
    computeSummaries();
}

const FuncSummary &Slicer::summaryOf(uint32_t Func) {
  ensureSummaries();
  return (*Summaries)[Func];
}

//===----------------------------------------------------------------------===//
// Demand-driven, region-restricted, context-sensitive slicing.
//===----------------------------------------------------------------------===//

namespace {

/// Acyclic may-reach test between two positions in one function's CFG
/// (used to decide whether a call site can feed a later use).
bool mayReach(const FunctionDeps &FD, const InstRef &From,
              const InstRef &To) {
  if (From.Block == To.Block)
    return From.Inst < To.Inst;
  const CFG &G = FD.cfg();
  std::vector<uint32_t> Work{From.Block};
  std::vector<uint8_t> Seen(G.numBlocks(), 0);
  Seen[From.Block] = 1;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t S : G.succs(B)) {
      if (S == To.Block)
        return true;
      if (!Seen[S]) {
        Seen[S] = 1;
        Work.push_back(S);
      }
    }
  }
  return false;
}

} // namespace

Slice Slicer::computeSlice(const InstRef &Load, int RegionIdx,
                           const std::vector<InstRef> &ContextCallSites) {
  const Program &P = Deps.program();
  const InstIndex &Index = Deps.instIndex();
  Slice S;
  S.PrimaryLoad = Load;
  S.TargetLoads.push_back(Load);
  S.RegionIdx = RegionIdx;
  S.Valid = true;

  // Frame k function: 0 = load's function; k>0 = ContextCallSites[k-1]'s.
  const size_t TopFrame = ContextCallSites.size();

  support::BitVector Members(Index.numInsts());
  size_t NumMembers = 0;
  support::BitVector LiveInDense(Reg::NumDenseIndices);
  std::deque<std::pair<InstRef, size_t>> Work; // (instruction, frame).

  auto InRegionAtFrame = [&](const InstRef &I, size_t K) {
    if (K < TopFrame)
      return true; // Inner frames are dynamically inside the region.
    return regionContains(RegionIdx, I.Func, I.Block);
  };

  // Adds an instruction to the slice.
  auto Include = [&](const InstRef &I, size_t K) {
    if (Members.test(Index.id(I)))
      return;
    if (blockIsCold(I.Func, I.Block))
      return; // Speculative slicing filters unexecuted paths.
    Members.set(Index.id(I));
    ++NumMembers;
    Work.push_back({I, K});
  };

  // Expands the value of register R as observed just before position Pos
  // at frame K. Memoized on (position, frame, register) to terminate in
  // the presence of recursive entry-dependence chains; the memo is one
  // lazily allocated instruction-id bitset per (frame, register).
  std::vector<std::unique_ptr<support::BitVector>> ExpandedUses(
      (TopFrame + 1) * Reg::NumDenseIndices);
  std::function<void(const InstRef &, size_t, Reg)> ExpandUse =
      [&](const InstRef &Pos, size_t K, Reg R) {
        if ((R.isInt() || R.isPred()) && R.Num == 0)
          return;
        auto &Memo = ExpandedUses[K * Reg::NumDenseIndices + R.denseIndex()];
        if (!Memo)
          Memo = std::make_unique<support::BitVector>(Index.numInsts());
        if (!Memo->testAndSet(Index.id(Pos)))
          return;
        const FunctionDeps &FD = Deps.forFunction(Pos.Func);

        bool LiveIn = FD.reachingDefs().forEachReachingDef(
            Pos.Block, Pos.Inst, R, RDScratch, [&](const InstRef &Prod) {
              if (!InRegionAtFrame(Prod, K)) {
                // Producer outside the region: the value is a live-in.
                LiveInDense.set(R.denseIndex());
                return;
              }
              // Speculation-aware slicing: a cold purely-loop-carried
              // producer is dropped from the slice and its value taken
              // from the LIB at trigger time instead — exactly what the
              // speculation assumes about the edge.
              analysis::SpecDrop Drop;
              if (Spec && Spec->shouldPrune(analysis::DepKind::Register,
                                            Prod, Pos, &Drop)) {
                LiveInDense.set(R.denseIndex());
                S.SpecDrops.push_back(Drop);
                return;
              }
              Include(Prod, K);
            });

        // Values produced inside callees: expand through summaries for
        // every warm call site that can reach this position and whose
        // callee may define R.
        for (const CallSite &C : CG.callSitesIn(Pos.Func)) {
          if (blockIsCold(Pos.Func, C.Site.Block))
            continue;
          if (!(C.Site == Pos) && !mayReach(FD, C.Site, Pos))
            continue;
          if (!InRegionAtFrame(C.Site, K))
            continue;
          const FuncSummary &Sum = summaryOf(C.Callee);
          const FuncSummary::RegInfo *Info = Sum.regInfo(R.denseIndex());
          if (!Info)
            continue;
          S.Interprocedural = true;
          for (const InstRef &M : Info->Insts)
            Include(M, K); // Callee instructions: dynamically in region.
          for (Reg E : Info->EntryDeps)
            ExpandUse(C.Site, K, E); // Actuals just before the call.
        }

        if (LiveIn) {
          if (K < TopFrame) {
            // Continue in the caller just before the context call site:
            // the context-sensitive contextmap(f, c) step.
            S.Interprocedural = true;
            ExpandUse(ContextCallSites[K], K + 1, R);
          } else {
            LiveInDense.set(R.denseIndex());
          }
        }
      };

  // Seed: the address operand of the delinquent load plus its control
  // dependences (Figure 3 includes the loop's continue condition).
  const Instruction &LoadInst = Load.get(P);
  assert(isLoad(LoadInst.Op) && "slicing a non-load");
  ExpandUse(Load, 0, LoadInst.Src1);
  {
    const FunctionDeps &FD = Deps.forFunction(Load.Func);
    for (const InstRef &Ctrl : FD.controlSources(Load))
      if (InRegionAtFrame(Ctrl, 0))
        Include(Ctrl, 0);
  }

  // Transitive closure.
  while (!Work.empty()) {
    auto [I, K] = Work.front();
    Work.pop_front();
    if (NumMembers > Opts.MaxSize) {
      S.Valid = false;
      S.RejectReason = "slice exceeds size cap";
      break;
    }
    const Instruction &Inst = I.get(P);
    const FunctionDeps &FD = Deps.forFunction(I.Func);

    if (Opts.RejectStoreDependent && isLoad(Inst.Op)) {
      for (const InstRef &Store : FD.memorySources(I)) {
        if (InRegionAtFrame(Store, K)) {
          // A cold store->load may-edge is speculatively ignored instead
          // of rejecting the slice.
          analysis::SpecDrop Drop;
          if (Spec && Spec->shouldPrune(analysis::DepKind::Memory, Store, I,
                                        &Drop)) {
            S.SpecDrops.push_back(Drop);
            continue;
          }
          S.Valid = false;
          S.RejectReason = "address depends on an in-region store";
        }
      }
    }

    Inst.forEachUse([&](Reg R) { ExpandUse(I, K, R); });
    for (const InstRef &Ctrl : FD.controlSources(I))
      if (InRegionAtFrame(Ctrl, K))
        Include(Ctrl, K);
  }

  S.Insts.reserve(NumMembers);
  Members.forEachSetBit([&](size_t Id) {
    S.Insts.push_back(Index.ref(static_cast<uint32_t>(Id)));
  });
  LiveInDense.forEachSetBit([&](size_t Dense) {
    S.LiveIns.push_back(regFromDenseIndex(static_cast<unsigned>(Dense)));
  });
  S.Interprocedural |= TopFrame > 0;
  std::sort(S.SpecDrops.begin(), S.SpecDrops.end());
  S.SpecDrops.erase(std::unique(S.SpecDrops.begin(), S.SpecDrops.end()),
                    S.SpecDrops.end());

  if (S.LiveIns.size() > sim::MaxLIBSlots - 2) {
    S.Valid = false;
    S.RejectReason = "too many live-ins for the LIB";
  }
  if (S.Valid && S.Insts.empty()) {
    S.Valid = false;
    S.RejectReason = "empty slice (address is region-invariant)";
  }
  return S;
}

void Slicer::mergeInto(Slice &A, const Slice &B) {
  assert(A.RegionIdx == B.RegionIdx && "merging slices of different regions");
  unionInPlace(A.Insts, B.Insts);
  unionInPlace(A.TargetLoads, B.TargetLoads);
  unionInPlace(A.LiveIns, B.LiveIns);
  unionInPlace(A.SpecDrops, B.SpecDrops);
  A.Interprocedural |= B.Interprocedural;
}

bool Slicer::combineIfOverlapping(Slice &A, const Slice &B) {
  if (A.RegionIdx != B.RegionIdx || !A.Valid || !B.Valid)
    return false;
  bool Shares = false;
  for (const InstRef &I : B.Insts)
    if (A.contains(I)) {
      Shares = true;
      break;
    }
  if (!Shares)
    return false;
  // Union members, targets, live-ins and speculation records.
  unionInPlace(A.Insts, B.Insts);
  unionInPlace(A.TargetLoads, B.TargetLoads);
  unionInPlace(A.LiveIns, B.LiveIns);
  unionInPlace(A.SpecDrops, B.SpecDrops);
  A.Interprocedural |= B.Interprocedural;
  return true;
}
