//===- sched/SliceDepGraph.cpp - Latency-annotated dependence graphs ------===//

#include "sched/SliceDepGraph.h"

#include <algorithm>
#include <cassert>

using namespace ssp;
using namespace ssp::sched;
using namespace ssp::analysis;
using namespace ssp::ir;

uint32_t ssp::sched::profiledLoadLatency(const Program &P, const InstRef &Ref,
                                         const profile::ProfileData &PD) {
  const Instruction &I = Ref.get(P);
  StaticId Sid = makeStaticId(Ref.Func, I.Id);
  auto It = PD.Loads.find(Sid);
  if (It == PD.Loads.end() || It->second.Accesses == 0)
    return 2; // Unprofiled: assume an L1 hit.
  const cache::PcCacheStats &S = It->second;
  return static_cast<uint32_t>(
      2 + S.MissCycles / S.Accesses); // L1 latency + average miss penalty.
}

SliceDepGraph SliceDepGraph::build(const ProgramDeps &Deps,
                                   const std::vector<InstRef> &Insts,
                                   const Loop *L, uint32_t LoopFunc,
                                   const profile::ProfileData &PD,
                                   bool PessimisticLoads,
                                   const std::vector<uint32_t> *CallCosts,
                                   const SpecDeps *Spec,
                                   std::vector<SpecDrop> *Drops) {
  SliceDepGraph G;
  const Program &P = Deps.program();
  G.Ids = &Deps.instIndex();
  G.Index.reserve(Insts.size());
  bool SingleFunc = true;
  for (const InstRef &I : Insts) {
    G.Index.push_back({G.Ids->id(I), static_cast<unsigned>(G.Nodes.size())});
    SingleFunc &= I.Func == Insts.front().Func;
    DepNode N;
    N.Ref = I;
    const Instruction &Inst = I.get(P);
    if (isLoad(Inst.Op)) {
      N.Latency = profiledLoadLatency(P, I, PD);
      if (PessimisticLoads)
        N.Latency = std::max(N.Latency, AssumedColdLoadLatency);
    }
    else if (Inst.Op == Opcode::Call || Inst.Op == Opcode::CallInd) {
      // Region heights must account for time spent inside callees (e.g.
      // the recursive subtree calls that give treeadd its slack).
      N.Latency = CallLatencyEstimate;
      if (CallCosts && Inst.Op == Opcode::Call &&
          Inst.Target < CallCosts->size() && (*CallCosts)[Inst.Target] > 0)
        N.Latency = (*CallCosts)[Inst.Target];
    }
    else
      N.Latency = latencyOf(Inst.Op);
    G.Nodes.push_back(N);
  }
  // Sorted by (id, node): a repeated instruction resolves to its last node.
  std::sort(G.Index.begin(), G.Index.end());
  G.Intra.resize(G.Nodes.size());
  G.Carried.resize(G.Nodes.size());

  for (unsigned UI = 0; UI < G.Nodes.size(); ++UI) {
    const InstRef &Use = G.Nodes[UI].Ref;
    const FunctionDeps &FD = Deps.forFunction(Use.Func);

    auto Classify = [&](const InstRef &Def, unsigned DI, bool IsData) {
      bool SameLoopFunc = L && Def.Func == LoopFunc && Use.Func == LoopFunc &&
                          L->contains(Def.Block) && L->contains(Use.Block);
      if (SameLoopFunc) {
        if (FD.reachesWithoutBackedge(Def, Use, *L)) {
          G.Intra[DI].push_back(UI);
        } else {
          // Purely loop-carried data edge: the speculation candidate.
          analysis::SpecDrop Drop;
          if (IsData && Spec &&
              Spec->shouldPrune(analysis::DepKind::Register, Def, Use,
                                &Drop)) {
            if (Drops)
              Drops->push_back(Drop);
            return;
          }
          G.Carried[DI].push_back(UI);
        }
      } else {
        // Interprocedural members or no loop: order by layout as intra.
        G.Intra[DI].push_back(UI);
      }
    };

    for (const InstRef &Def : FD.dataSources(Use)) {
      int DI = G.indexOf(Def);
      if (DI >= 0 && static_cast<unsigned>(DI) != UI)
        Classify(Def, DI, /*IsData=*/true);
    }
    for (const InstRef &Ctrl : FD.controlSources(Use)) {
      int DI = G.indexOf(Ctrl);
      if (DI >= 0 && static_cast<unsigned>(DI) != UI)
        Classify(Ctrl, DI, /*IsData=*/false);
    }

    // Cross-function flow edges: a use whose value may come from outside
    // its function (live-in at that point) depends on any member of a
    // *different* function defining that register — the caller computing
    // an argument the callee consumes, or a callee computing a value its
    // caller reads after the call. Reaching definitions are per-function
    // and cannot see these. A single-function graph (every region graph)
    // has no such pairs.
    if (SingleFunc)
      continue;
    Use.get(P).forEachUse([&](Reg R2) {
      if ((R2.isInt() || R2.isPred()) && R2.Num == 0)
        return;
      if (!FD.reachingDefs().mayBeLiveIn(Use.Block, Use.Inst, R2))
        return;
      for (unsigned DI = 0; DI < G.Nodes.size(); ++DI) {
        if (DI == UI || G.Nodes[DI].Ref.Func == Use.Func)
          continue;
        if (G.Nodes[DI].Ref.get(P).def() == R2)
          G.Intra[DI].push_back(UI);
      }
    });
  }

  // Deduplicate adjacency.
  for (auto *Adj : {&G.Intra, &G.Carried})
    for (auto &Edges : *Adj) {
      std::sort(Edges.begin(), Edges.end());
      Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());
    }
  return G;
}

int SliceDepGraph::indexOf(const InstRef &Ref) const {
  if (Index.empty())
    return -1;
  uint32_t Id = Ids->id(Ref);
  auto It = std::upper_bound(
      Index.begin(), Index.end(), Id,
      [](uint32_t K, const std::pair<uint32_t, unsigned> &E) {
        return K < E.first;
      });
  if (It == Index.begin() || std::prev(It)->first != Id)
    return -1;
  return static_cast<int>(std::prev(It)->second);
}

std::vector<uint64_t> SliceDepGraph::nodeHeights() const {
  // Longest path over the intra DAG; the intra subgraph is acyclic by
  // construction (acyclic reaching order), so reverse topological
  // processing via repeated relaxation converges in |V| rounds; we use a
  // DFS-based memoized computation instead.
  std::vector<uint64_t> Height(Nodes.size(), 0);
  std::vector<uint8_t> State(Nodes.size(), 0); // 0 new, 1 visiting, 2 done.
  struct Frame {
    unsigned Node;
    size_t Next;
  };
  std::vector<Frame> Stack;
  for (unsigned Root = 0; Root < Nodes.size(); ++Root) {
    if (State[Root] == 2)
      continue;
    Stack.push_back({Root, 0});
    State[Root] = 1;
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      unsigned V = F.Node;
      if (F.Next < Intra[V].size()) {
        unsigned W = Intra[V][F.Next++];
        if (State[W] == 0) {
          State[W] = 1;
          Stack.push_back({W, 0});
        }
        // A back edge here would mean a cycle in the intra subgraph; the
        // classification forbids it, and ignoring it keeps heights finite.
      } else {
        uint64_t Best = 0;
        for (unsigned W : Intra[V])
          if (State[W] == 2)
            Best = std::max(Best, Height[W]);
        Height[V] = Best + Nodes[V].Latency;
        State[V] = 2;
        Stack.pop_back();
      }
    }
  }
  return Height;
}

uint64_t SliceDepGraph::height() const {
  uint64_t Max = 0;
  for (uint64_t H : nodeHeights())
    Max = std::max(Max, H);
  return Max;
}

uint64_t SliceDepGraph::totalLatency() const {
  uint64_t Sum = 0;
  for (const DepNode &N : Nodes)
    Sum += N.Latency;
  return Sum;
}

std::vector<InstRef> ssp::sched::regionInstructions(const RegionGraph &RG,
                                                    int RegionIdx,
                                                    const ProgramDeps &Deps) {
  const Region &R = RG.region(RegionIdx);
  const Program &P = Deps.program();
  const Function &F = P.func(R.Func);
  std::vector<InstRef> Insts;

  auto AddBlock = [&](uint32_t BI) {
    const BasicBlock &BB = F.block(BI);
    if (BB.isAttachment())
      return;
    for (uint32_t II = 0; II < BB.Insts.size(); ++II)
      Insts.push_back({R.Func, BI, II});
  };

  if (R.Kind == RegionKind::Procedure) {
    for (uint32_t BI = 0; BI < F.numBlocks(); ++BI)
      AddBlock(BI);
  } else {
    const FunctionDeps &FD = Deps.forFunction(R.Func);
    for (uint32_t BI : FD.loops().loop(R.LoopIdx).Blocks)
      AddBlock(BI);
  }
  return Insts;
}
