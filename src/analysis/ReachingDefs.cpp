//===- analysis/ReachingDefs.cpp - Register reaching definitions ----------===//

#include "analysis/ReachingDefs.h"

using namespace ssp;
using namespace ssp::analysis;
using namespace ssp::ir;

ReachingDefs ReachingDefs::build(const Program &P, uint32_t Func,
                                 const CFG &G) {
  ReachingDefs RD;
  RD.Prog = &P;
  RD.Func = Func;
  const Function &F = P.func(Func);

  // Enumerate definition sites; each block's ids are contiguous.
  RD.DefsOfReg.resize(Reg::NumDenseIndices);
  RD.BlockDefBegin.reserve(F.numBlocks() + 1);
  for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
    RD.BlockDefBegin.push_back(static_cast<uint32_t>(RD.Defs.size()));
    const BasicBlock &BB = F.block(BI);
    if (BB.isAttachment())
      continue;
    for (uint32_t II = 0; II < BB.Insts.size(); ++II) {
      Reg D = BB.Insts[II].def();
      if (!D.isValid())
        continue;
      uint32_t Id = static_cast<uint32_t>(RD.Defs.size());
      RD.Defs.push_back({Func, BI, II});
      RD.DefRegs.push_back(D);
      RD.DefsOfReg[D.denseIndex()].push_back(Id);
    }
  }
  RD.BlockDefBegin.push_back(static_cast<uint32_t>(RD.Defs.size()));

  size_t NumDefs = RD.Defs.size();
  size_t NumBlocks = F.numBlocks();
  RD.In.resize(NumBlocks);
  RD.EntryReachesIn.resize(NumBlocks);
  std::vector<support::BitVector> Out(NumBlocks), EntryReachesOut(NumBlocks);
  for (size_t B = 0; B < NumBlocks; ++B) {
    RD.In[B].resize(NumDefs);
    Out[B].resize(NumDefs);
    RD.EntryReachesIn[B].resize(Reg::NumDenseIndices);
    EntryReachesOut[B].resize(Reg::NumDenseIndices);
  }
  // At the function entry, every register may hold a caller value.
  for (unsigned R = 0; R < Reg::NumDenseIndices; ++R)
    RD.EntryReachesIn[G.entry()].set(R);

  // GEN/KILL per block, derived on the fly inside the transfer function.
  // Walking the block's defs backwards, the first def seen of a register
  // is its last one: it kills every def of that register and gens itself,
  // and the register's earlier defs in the block are skipped. Killed is
  // stamped per call (a per-block stamp would match on the block's next
  // visit and skip every def).
  std::vector<uint32_t> Killed(Reg::NumDenseIndices, 0);
  uint32_t Stamp = 0;
  auto Transfer = [&](uint32_t BI, const support::BitVector &InSet,
                      const support::BitVector &EntryIn,
                      support::BitVector &OutSet,
                      support::BitVector &EntryOut) {
    OutSet = InSet;
    EntryOut = EntryIn;
    ++Stamp;
    for (uint32_t Id = RD.BlockDefBegin[BI + 1];
         Id-- > RD.BlockDefBegin[BI];) {
      unsigned D = RD.DefRegs[Id].denseIndex();
      if (Killed[D] == Stamp)
        continue;
      Killed[D] = Stamp;
      for (uint32_t K : RD.DefsOfReg[D])
        OutSet.reset(K);
      OutSet.set(Id);
      EntryOut.reset(D);
    }
  };

  // Iterate to a fixed point over the RPO.
  support::BitVector NewOut(NumDefs), NewEntryOut(Reg::NumDenseIndices);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t BI : G.rpo()) {
      for (uint32_t Pred : G.preds(BI)) {
        if (RD.In[BI].unionWith(Out[Pred]))
          Changed = true;
        if (RD.EntryReachesIn[BI].unionWith(EntryReachesOut[Pred]))
          Changed = true;
      }
      Transfer(BI, RD.In[BI], RD.EntryReachesIn[BI], NewOut, NewEntryOut);
      if (Out[BI].unionWith(NewOut))
        Changed = true;
      if (EntryReachesOut[BI].unionWith(NewEntryOut))
        Changed = true;
    }
  }
  return RD;
}

bool ReachingDefs::stateBefore(uint32_t Block, uint32_t Inst, ir::Reg R,
                               std::vector<uint32_t> *DefsOut) const {
  unsigned Dense = R.denseIndex();
  if (DefsOut)
    DefsOut->clear();

  // Attachment blocks trail the body and have no CFG edges (CFG::build),
  // so no def and no entry value reaches any point in them.
  if (Prog->func(Func).block(Block).isAttachment())
    return false;

  // The last def of R in the block before Inst, if any, is the answer.
  for (uint32_t Id = BlockDefBegin[Block + 1]; Id-- > BlockDefBegin[Block];)
    if (Defs[Id].Inst < Inst && DefRegs[Id].denseIndex() == Dense) {
      if (DefsOut)
        DefsOut->push_back(Id);
      return false;
    }

  // Otherwise the block-entry state for R.
  if (DefsOut)
    for (uint32_t Id : DefsOfReg[Dense])
      if (In[Block].test(Id))
        DefsOut->push_back(Id);
  return EntryReachesIn[Block].test(Dense);
}
