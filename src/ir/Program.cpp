//===- ir/Program.cpp - Linking and printing ------------------------------===//

#include "ir/Program.h"

#include "support/Assert.h"

#include <cassert>

using namespace ssp;
using namespace ssp::ir;

LinkedProgram LinkedProgram::link(const Program &P) {
  LinkedProgram LP;
  LP.Prog = &P;
  LP.FuncEntries.resize(P.numFuncs(), 0);
  LP.BlockStarts.resize(P.numFuncs());

  // First pass: assign addresses to every instruction in layout order
  // (functions in index order; blocks in index order, which places SSP
  // attachments after the function body per Figure 7).
  uint32_t Addr = 0;
  uint32_t BundleId = 0;
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    const Function &F = P.func(FI);
    LP.FuncEntries[FI] = Addr;
    LP.BlockStarts[FI].resize(F.numBlocks(), 0);
    for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
      const BasicBlock &BB = F.block(BI);
      assert(!BB.Insts.empty() && "cannot link an empty basic block");
      LP.BlockStarts[FI][BI] = Addr;
      unsigned InBundle = 0;
      for (const Instruction &I : BB.Insts) {
        LinkedInst LI;
        LI.I = &I;
        LI.Func = FI;
        LI.Block = BI;
        LI.BundleId = BundleId;
        LI.Sid = makeStaticId(FI, I.Id);
        LP.Code.push_back(LI);
        ++Addr;
        if (++InBundle == BundleSlots) {
          InBundle = 0;
          ++BundleId;
        }
      }
      // A bundle never spans a block boundary.
      if (InBundle != 0)
        ++BundleId;
    }
  }

  // Second pass: resolve control transfer targets to global addresses.
  for (LinkedInst &LI : LP.Code) {
    const Instruction &I = *LI.I;
    if (hasBlockTarget(I.Op)) {
      assert(I.Target < LP.BlockStarts[LI.Func].size() &&
             "branch target block out of range");
      LI.TargetAddr = LP.BlockStarts[LI.Func][I.Target];
    } else if (I.Op == Opcode::Call) {
      assert(I.Target < LP.FuncEntries.size() &&
             "call target function out of range");
      LI.TargetAddr = LP.FuncEntries[I.Target];
    }
  }

  LP.Entry = LP.FuncEntries[P.getEntry()];
  LP.Streams = P.streams();

  // Third pass: predecode. Everything the executor and the timing cores
  // consult per dynamic instance — dense operand indices, function unit,
  // latency, final targets — is resolved here, once per static instruction.
  LP.Decoded.reserve(LP.Code.size());
  for (const LinkedInst &LI : LP.Code) {
    const Instruction &I = *LI.I;
    DecodedInst D;
    D.Op = I.Op;
    D.Cond = I.Cond;
    D.FU = funcUnitOf(I.Op);
    D.Latency = static_cast<uint8_t>(latencyOf(I.Op));
    D.Imm = I.Imm;
    D.Src1 = I.Src1.isValid() ? static_cast<uint16_t>(I.Src1.denseIndex())
                              : uint16_t(0);
    D.Src2 = I.Src2.isValid() ? static_cast<uint16_t>(I.Src2.denseIndex())
                              : uint16_t(0);
    I.forEachUse([&](Reg R) {
      assert(D.NumUses < 2 && "more than two register uses");
      D.Uses[D.NumUses++] = static_cast<uint16_t>(R.denseIndex());
    });
    Reg Def = I.def();
    if (Def.isValid()) {
      D.Def = static_cast<uint16_t>(Def.denseIndex());
      D.DstIsPred = Def.isPred();
      // r0 and p0 are hardwired: the timing def slot exists, the
      // architectural write is dropped.
      bool Hardwired =
          Def.Num == 0 && (Def.isInt() || Def.isPred());
      D.WDst = Hardwired ? DecodedInst::NoReg : D.Def;
    }
    D.Target = (hasBlockTarget(I.Op) || I.Op == Opcode::Call) ? LI.TargetAddr
                                                              : I.Target;
    LP.Decoded.push_back(D);
  }
  return LP;
}

std::string Instruction::str() const {
  const OpcodeInfo &Info = opcodeInfo(Op);
  std::string S = Info.Name;
  if (Info.Flags & OpcodeInfo::Cond) {
    S += '.';
    S += condName(Cond);
  }
  auto Mem = [&] {
    return "[" + Src1.str() + " + " + std::to_string(Imm) + "]";
  };
  auto Slot = [&] { return "lib[" + std::to_string(Target) + "]"; };
  switch (Info.Form) {
  case OperandForm::None:
    return S;
  case OperandForm::RegImm:
    return S + " " + Dst.str() + " = " + std::to_string(Imm);
  case OperandForm::RegReg:
    return S + " " + Dst.str() + " = " + Src1.str();
  case OperandForm::RegRegReg:
    return S + " " + Dst.str() + " = " + Src1.str() + ", " + Src2.str();
  case OperandForm::RegRegImm:
    return S + " " + Dst.str() + " = " + Src1.str() + ", " +
           std::to_string(Imm);
  case OperandForm::Load:
    return S + " " + Dst.str() + " = " + Mem();
  case OperandForm::Store:
    return S + " " + Mem() + " = " + Src2.str();
  case OperandForm::Prefetch:
    return S + " " + Mem();
  case OperandForm::Branch:
    return S + " (" + Src1.str() + ") bb" + std::to_string(Target);
  case OperandForm::Block:
    return S + " bb" + std::to_string(Target);
  case OperandForm::Call:
    return S + " fn" + std::to_string(Target);
  case OperandForm::CallInd:
    return S + " [" + Src1.str() + "]";
  case OperandForm::LibStore:
    return S + " " + Slot() + " = " + Src1.str();
  case OperandForm::LibStoreImm:
    return S + " " + Slot() + " = " + std::to_string(Imm);
  case OperandForm::LibLoad:
    return S + " " + Dst.str() + " = " + Slot();
  }
  ssp_unreachable("bad operand form");
}

Program Program::clone() const {
  Program New;
  for (uint32_t FI = 0; FI < numFuncs(); ++FI) {
    const Function &F = func(FI);
    Function &NF = New.addFunction(F.getName());
    NF.blocks() = F.blocks();
    NF.setInstIdWatermark(F.numInstIds());
  }
  New.StreamTable = StreamTable;
  New.setEntry(EntryFunc);
  return New;
}

namespace {

std::string streamReg(const Reg &R) {
  return R.isValid() ? R.str() : std::string("none");
}

/// One `stream` directive line; fixed key order so emission is canonical
/// and the parser can consume keys positionally.
std::string streamLine(const StreamDescriptor &D) {
  std::string S = "stream fn" + std::to_string(D.Func) + " bb" +
                  std::to_string(D.StubBlock) + " " +
                  streamKindName(D.Kind);
  S += " abase=" + streamReg(D.AddrBase);
  S += " aind=" + streamReg(D.AddrInd);
  S += " amul=" + std::to_string(D.AddrMul);
  S += " aadd=" + std::to_string(D.AddrAdd);
  S += " stride=" + std::to_string(D.Stride);
  S += " coff=" + std::to_string(D.ChaseOff);
  S += " vbase=" + streamReg(D.ValBase);
  S += " vmul=" + std::to_string(D.ValMul);
  // The all-ones default mask round-trips as signed -1.
  S += " vmask=" + std::to_string(static_cast<int64_t>(D.ValMask));
  S += " vshift=" + std::to_string(D.ValShift);
  S += " vadd=" + std::to_string(D.ValAdd);
  S += " elem=" + std::to_string(D.ElemBytes);
  S += " depth=" + std::to_string(D.Depth);
  S += " pf=";
  for (size_t I = 0; I < D.PrefetchOffsets.size(); ++I)
    S += (I ? "," : "") + std::to_string(D.PrefetchOffsets[I]);
  S += " ipf=";
  if (!D.PrefetchIndex)
    S += "none";
  else
    for (size_t I = 0; I < D.IdxPrefetchOffsets.size(); ++I)
      S += (I ? "," : "") + std::to_string(D.IdxPrefetchOffsets[I]);
  return S;
}

} // namespace

std::string Program::str() const {
  std::string S;
  for (uint32_t FI = 0; FI < numFuncs(); ++FI) {
    const Function &F = func(FI);
    S += "function " + F.getName() + " (fn" + std::to_string(FI) + ")";
    if (FI == EntryFunc)
      S += " [entry]";
    S += ":\n";
    // Static instruction ids are carried by the text format only where
    // they deviate from the parser's default numbering (one counter of
    // *unannotated* instructions per function). A builder-produced
    // function whose ids follow layout order prints without any
    // annotations; an adapted function prints a compact `@id` suffix on
    // exactly the out-of-order instructions (the inserted chk.c triggers,
    // whose ids are allocated after the attachment blocks'). Reparsing
    // then reconstructs every id — sid-keyed data (cache profiles,
    // prefetch attribution) survives the text round trip bit-identically.
    uint32_t DefaultId = 0;
    for (const BasicBlock &BB : F.blocks()) {
      S += "  bb" + std::to_string(BB.Index) + " <" + BB.Name + ">";
      if (BB.Kind == BlockKind::Stub)
        S += " [stub]";
      else if (BB.Kind == BlockKind::Slice)
        S += " [slice]";
      S += ":\n";
      for (const Instruction &I : BB.Insts) {
        S += "    " + I.str();
        if (I.Id == DefaultId)
          ++DefaultId;
        else
          S += " @" + std::to_string(I.Id);
        S += "\n";
      }
    }
  }
  for (const StreamDescriptor &D : StreamTable)
    S += streamLine(D) + "\n";
  return S;
}
