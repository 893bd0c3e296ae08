//===- analysis/DependenceGraph.cpp - Dependence edge queries -------------===//

#include "analysis/DependenceGraph.h"

#include <algorithm>
#include <cassert>

using namespace ssp;
using namespace ssp::analysis;
using namespace ssp::ir;

FunctionDeps::FunctionDeps(const Program &P, uint32_t Func)
    : P(P), Func(Func), G(CFG::build(P.func(Func))),
      Dom(DomTree::buildDominators(G)), LI(LoopInfo::build(G, Dom)) {}

const ReachingDefs &FunctionDeps::reachingDefs() const {
  std::call_once(RDOnce, [this] { RD = ReachingDefs::build(P, Func, G); });
  return RD;
}

const std::vector<std::vector<uint32_t>> &FunctionDeps::controlDeps() const {
  std::call_once(CtrlOnce, [this] { CtrlDeps = controlDependence(G); });
  return CtrlDeps;
}

std::vector<InstRef> FunctionDeps::dataSources(const InstRef &I) const {
  assert(I.Func == Func && "query for wrong function");
  std::vector<InstRef> Sources;
  std::vector<uint32_t> Scratch;
  const ReachingDefs &RD = reachingDefs();
  const Instruction &Inst = I.get(P);
  Inst.forEachUse([&](Reg R) {
    // Hardwired registers have no producers.
    if ((R.isInt() || R.isPred()) && R.Num == 0)
      return;
    RD.forEachReachingDef(I.Block, I.Inst, R, Scratch,
                          [&](const InstRef &Def) { Sources.push_back(Def); });
  });
  std::sort(Sources.begin(), Sources.end());
  Sources.erase(std::unique(Sources.begin(), Sources.end()), Sources.end());
  return Sources;
}

std::vector<InstRef> FunctionDeps::controlSources(const InstRef &I) const {
  assert(I.Func == Func && "query for wrong function");
  std::vector<InstRef> Sources;
  for (uint32_t BranchBlock : controlDeps()[I.Block]) {
    const BasicBlock &BB = P.func(Func).block(BranchBlock);
    assert(!BB.Insts.empty());
    Sources.push_back(
        {Func, BranchBlock, static_cast<uint32_t>(BB.Insts.size() - 1)});
  }
  return Sources;
}

std::vector<InstRef> FunctionDeps::memorySources(const InstRef &I) const {
  assert(I.Func == Func && "query for wrong function");
  const Instruction &Load = I.get(P);
  std::vector<InstRef> Sources;
  if (!isLoad(Load.Op))
    return Sources;
  // Same-base-same-displacement disambiguation (see header comment).
  const Function &F = P.func(Func);
  for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
    const BasicBlock &BB = F.block(BI);
    if (BB.isAttachment())
      continue;
    for (uint32_t II = 0; II < BB.Insts.size(); ++II) {
      const Instruction &S = BB.Insts[II];
      if (!isStore(S.Op))
        continue;
      if (S.Src1 == Load.Src1 && S.Imm == Load.Imm)
        Sources.push_back({Func, BI, II});
    }
  }
  return Sources;
}

std::vector<Reg> FunctionDeps::liveInUses(const InstRef &I) const {
  assert(I.Func == Func && "query for wrong function");
  std::vector<Reg> LiveIns;
  const ReachingDefs &RD = reachingDefs();
  const Instruction &Inst = I.get(P);
  Inst.forEachUse([&](Reg R) {
    if ((R.isInt() || R.isPred()) && R.Num == 0)
      return;
    if (RD.mayBeLiveIn(I.Block, I.Inst, R))
      LiveIns.push_back(R);
  });
  std::sort(LiveIns.begin(), LiveIns.end());
  LiveIns.erase(std::unique(LiveIns.begin(), LiveIns.end()), LiveIns.end());
  return LiveIns;
}

bool FunctionDeps::reachesWithoutBackedge(const InstRef &Def,
                                          const InstRef &Use,
                                          const Loop &L) const {
  if (Def.Block == Use.Block)
    return Def.Inst < Use.Inst;

  // DFS from Def.Block to Use.Block restricted to loop blocks, with all
  // back edges to the header removed.
  std::vector<uint32_t> Work{Def.Block};
  std::vector<uint8_t> Seen(G.numBlocks(), 0);
  Seen[Def.Block] = 1;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t S : G.succs(B)) {
      if (S == L.Header)
        continue; // Back edge (or loop entry, which a path from inside the
                  // loop cannot re-enter acyclically anyway).
      if (!L.contains(S) || Seen[S])
        continue;
      if (S == Use.Block)
        return true;
      Seen[S] = 1;
      Work.push_back(S);
    }
  }
  // The use may live in the header itself, reachable only via back edges.
  return false;
}
