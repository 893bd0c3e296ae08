//===- analysis/SpecDeps.cpp - Speculation-aware dependence classification ===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecDeps.h"

#include <algorithm>

namespace ssp::analysis {

namespace {

/// Observed count of (From, To) in the sorted evidence vector, 0 if absent.
uint64_t lookupCount(const std::vector<DepEdgeCount> *V, ir::StaticId From,
                     ir::StaticId To) {
  if (!V)
    return 0;
  DepEdgeCount Key;
  Key.From = From;
  Key.To = To;
  auto It = std::lower_bound(V->begin(), V->end(), Key);
  if (It != V->end() && It->From == From && It->To == To)
    return It->Count;
  return 0;
}

/// Index of the innermost loop containing both \p A and \p B, or -1. Walks
/// the parent chain of \p A's innermost loop until one contains \p B.
int innermostCommonLoop(const LoopInfo &LI, uint32_t A, uint32_t B) {
  int L = LI.innermostLoopOf(A);
  while (L >= 0 && !LI.loop(L).contains(B))
    L = LI.loop(L).Parent;
  return L;
}

} // namespace

uint64_t SpecDeps::tripsOf(const InstRef &Consumer) const {
  if (!Ev.InstCounts || Consumer.Func >= Ev.InstCounts->size())
    return 0;
  const InstCountRow &Row = (*Ev.InstCounts)[Consumer.Func];
  uint32_t Id = Consumer.get(Deps.program()).Id;
  auto It = std::lower_bound(
      Row.begin(), Row.end(), Id,
      [](const std::pair<uint32_t, uint64_t> &E, uint32_t K) {
        return E.first < K;
      });
  return It != Row.end() && It->first == Id ? It->second : 0;
}

void SpecDeps::evidenceFor(DepKind Kind, const InstRef &From,
                           const InstRef &To, uint64_t &Observed,
                           uint64_t &Trips) const {
  const ir::Program &P = Deps.program();
  ir::StaticId FromSid = ir::makeStaticId(From.Func, From.get(P).Id);
  ir::StaticId ToSid = ir::makeStaticId(To.Func, To.get(P).Id);
  Observed = lookupCount(Kind == DepKind::Memory ? Ev.MemDeps : Ev.RegDeps,
                         FromSid, ToSid);
  Trips = tripsOf(To);
}

DepClass SpecDeps::classifyMayEdge(DepKind Kind, const InstRef &From,
                                   const InstRef &To) const {
  if (!enabled())
    return DepClass::Hot;
  uint64_t Observed = 0, Trips = 0;
  evidenceFor(Kind, From, To, Observed, Trips);
  // No coverage: the consumer never ran under the profile, so there is no
  // evidence either way — keep the edge.
  if (Trips == 0)
    return DepClass::Hot;
  return static_cast<double>(Observed) <=
                 Opts.Threshold * static_cast<double>(Trips)
             ? DepClass::Cold
             : DepClass::Hot;
}

DepClass SpecDeps::classifyRegEdge(const InstRef &Def,
                                   const InstRef &Use) const {
  if (Def.Func != Use.Func)
    return DepClass::Must;
  const ir::Program &P = Deps.program();
  const ir::Instruction &DefI = Def.get(P);
  ir::Reg R = DefI.def();
  if (!R.isValid())
    return DepClass::Must;
  // The slicer expands uses from synthetic positions too (call sites
  // standing in for callee live-ins); only a position that genuinely reads
  // the defined register is a speculation candidate.
  bool Reads = false;
  Use.get(P).forEachUse([&](ir::Reg U) { Reads |= U == R; });
  if (!Reads)
    return DepClass::Must;
  const FunctionDeps &FD = Deps.forFunction(Def.Func);
  int L = innermostCommonLoop(FD.loops(), Use.Block, Def.Block);
  if (L < 0)
    return DepClass::Must;
  // An intra-iteration component makes the edge non-speculative; only a
  // purely loop-carried def->use flow may be pruned on evidence.
  if (FD.reachesWithoutBackedge(Def, Use, FD.loops().loop(L)))
    return DepClass::Must;
  return classifyMayEdge(DepKind::Register, Def, Use);
}

DepClass SpecDeps::classifyMemEdge(const InstRef &Store,
                                   const InstRef &Load) const {
  if (Store.Func != Load.Func)
    return DepClass::Must;
  // A store earlier in the load's own block flows on every execution.
  if (Store.Block == Load.Block && Store.Inst < Load.Inst)
    return DepClass::Must;
  return classifyMayEdge(DepKind::Memory, Store, Load);
}

bool SpecDeps::shouldPrune(DepKind Kind, const InstRef &From,
                           const InstRef &To, SpecDrop *Drop) const {
  DepClass C = Kind == DepKind::Memory ? classifyMemEdge(From, To)
                                       : classifyRegEdge(From, To);
  if (C != DepClass::Cold)
    return false;
  if (Drop) {
    const ir::Program &P = Deps.program();
    Drop->Kind = Kind;
    Drop->From = ir::makeStaticId(From.Func, From.get(P).Id);
    Drop->To = ir::makeStaticId(To.Func, To.get(P).Id);
    evidenceFor(Kind, From, To, Drop->Observed, Drop->Trips);
    Drop->Threshold = Opts.Threshold;
  }
  return true;
}

} // namespace ssp::analysis
