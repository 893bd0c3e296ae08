//===- ir/Verifier.cpp - Structural well-formedness checks ----------------===//

#include "ir/Verifier.h"

#include "ir/Program.h"
#include "verify/Diagnostic.h"

#include <vector>

using namespace ssp;
using namespace ssp::ir;

namespace {

/// The name diagnostics give an opcode's Src1 operand.
const char *src1Role(OperandForm Form) {
  switch (Form) {
  case OperandForm::Load:
  case OperandForm::Store:
  case OperandForm::Prefetch:
    return "base";
  case OperandForm::Branch:
    return "predicate";
  case OperandForm::CallInd:
    return "target";
  default:
    return "src1";
  }
}

class VerifierImpl {
public:
  VerifierImpl(const Program &P, verify::DiagnosticEngine &DE)
      : P(P), DE(DE) {}

  void run() {
    for (uint32_t FI = 0; FI < P.numFuncs(); ++FI)
      verifyFunction(P.func(FI));
    if (P.numFuncs() == 0)
      DE.errorInProgram("structural.no-functions",
                        "program has no functions");
    else if (P.getEntry() >= P.numFuncs())
      DE.errorInProgram("structural.entry-range",
                        "entry function index out of range");
  }

private:
  void errorIn(const Function &F, const BasicBlock &BB, uint32_t Inst,
               const char *CheckId, const std::string &Msg,
               std::string Hint = "") {
    DE.error(CheckId, {F.getIndex(), BB.Index, Inst},
             "in " + F.getName() + " bb" + std::to_string(BB.Index) + ": " +
                 Msg,
             std::move(Hint));
  }

  void errorInBlock(const Function &F, const BasicBlock &BB,
                    const char *CheckId, const std::string &Msg) {
    DE.errorInBlock(CheckId, F.getIndex(), BB.Index,
                    "in " + F.getName() + " bb" + std::to_string(BB.Index) +
                        ": " + Msg);
  }

  void verifyFunction(const Function &F) {
    if (F.numBlocks() == 0) {
      DE.errorInFunc("structural.empty-function", F.getIndex(),
                     "function " + F.getName() + " has no blocks");
      return;
    }
    // Attachments must come after all body blocks, so body fallthrough never
    // runs into a stub or slice (Figure 7 layout).
    bool SeenAttachment = false;
    uint32_t LastBodyIdx = 0;
    for (const BasicBlock &BB : F.blocks()) {
      if (BB.isAttachment()) {
        SeenAttachment = true;
      } else {
        if (SeenAttachment)
          errorInBlock(F, BB, "structural.block-order",
                       "body block after attachment blocks");
        LastBodyIdx = BB.Index;
      }
    }
    for (const BasicBlock &BB : F.blocks())
      verifyBlock(F, BB, BB.Index == LastBodyIdx);
    verifyUniqueIds(F);
  }

  /// Marks each id in a flag table indexed by id; the second and later
  /// holders of an id are reported. Ids at or above MaxInstId were
  /// reported by verifyInst and are not indexed.
  void verifyUniqueIds(const Function &F) {
    SeenId.assign(F.numInstIds(), false);
    for (const BasicBlock &BB : F.blocks())
      for (uint32_t Idx = 0; Idx < BB.Insts.size(); ++Idx) {
        uint32_t Id = BB.Insts[Idx].Id;
        if (Id >= MaxInstId)
          continue;
        if (Id >= SeenId.size())
          SeenId.resize(Id + 1, false);
        if (SeenId[Id])
          errorIn(F, BB, Idx, "structural.dup-id",
                  "duplicate static instruction id " + std::to_string(Id));
        SeenId[Id] = true;
      }
  }

  void verifyBlock(const Function &F, const BasicBlock &BB,
                   bool IsLastBody) {
    if (BB.Insts.empty()) {
      errorInBlock(F, BB, "structural.empty-block", "empty basic block");
      return;
    }
    for (size_t Idx = 0; Idx < BB.Insts.size(); ++Idx) {
      const Instruction &I = BB.Insts[Idx];
      bool IsLast = Idx + 1 == BB.Insts.size();
      verifyInst(F, BB, static_cast<uint32_t>(Idx), I, IsLast);
    }
    // The last body block must not fall off the end of the function.
    const Instruction &Last = BB.Insts.back();
    if (IsLastBody && BB.Kind == BlockKind::Body &&
        !BB.endsWithUnconditionalExit())
      errorInBlock(F, BB, "structural.fallthrough",
                   "last body block may fall through past the function");
    switch (BB.Kind) {
    case BlockKind::Body:
      break;
    case BlockKind::Stub:
      if (Last.Op != Opcode::Rfi)
        errorIn(F, BB, static_cast<uint32_t>(BB.Insts.size() - 1),
                "structural.stub-rfi", "stub block must end with rfi",
                "end the chk.c recovery code with rfi so the main thread "
                "resumes at the interrupted instruction");
      break;
    case BlockKind::Slice:
      if (!isTerminator(Last.Op) && Last.Op != Opcode::Br)
        errorIn(F, BB, static_cast<uint32_t>(BB.Insts.size() - 1),
                "structural.slice-terminator",
                "slice block must end with control flow");
      break;
    }
  }

  void verifyInst(const Function &F, const BasicBlock &BB, uint32_t Idx,
                  const Instruction &I, bool IsLast) {
    // Register classes: the row's, except mov's same-class rule; a lib
    // copy needs its register operand.
    const OpcodeInfo &Info = opcodeInfo(I.Op);
    auto WantClass = [&](Reg R, RegClass C, const char *What) {
      if (C != RegClass::None && R.Cls != C)
        errorIn(F, BB, Idx, "structural.regclass",
                std::string(What) + " has wrong register class in '" +
                    I.str() + "'");
    };
    WantClass(I.Dst, Info.Dst, "dst");
    WantClass(I.Src1, Info.Src1, src1Role(Info.Form));
    WantClass(I.Src2, Info.Src2,
              Info.Form == OperandForm::Store ? "value" : "src2");
    if (I.Op == Opcode::Mov &&
        (I.Dst.Cls != I.Src1.Cls || (!I.Dst.isInt() && !I.Dst.isFP())))
      errorIn(F, BB, Idx, "structural.regclass",
              "mov operands must be same Int/FP class");
    if (Info.Form == OperandForm::LibStore && !I.Src1.isValid())
      errorIn(F, BB, Idx, "structural.regclass",
              "lib.st needs a source register");
    if (Info.Form == OperandForm::LibLoad && !I.Dst.isValid())
      errorIn(F, BB, Idx, "structural.regclass",
              "lib.ld needs a destination register");
    bool IsLibCopy = Info.Form == OperandForm::LibStore ||
                     Info.Form == OperandForm::LibStoreImm ||
                     Info.Form == OperandForm::LibLoad;
    if (IsLibCopy && I.Target >= LIBSlots)
      errorIn(F, BB, Idx, "structural.lib-slot",
              "LIB slot " + std::to_string(I.Target) + " out of range (" +
                  std::to_string(LIBSlots) + " slots) in '" + I.str() + "'");

    if (I.Id >= MaxInstId)
      errorIn(F, BB, Idx, "structural.id-range",
              "static instruction id " + std::to_string(I.Id) +
                  " out of range (ids must be below " +
                  std::to_string(MaxInstId) + ")");

    // Hardwired registers are read-only: r0 == 0 and p0 == true.
    Reg D = I.def();
    if (D.isValid() && D.Num == 0 &&
        (D.Cls == RegClass::Int || D.Cls == RegClass::Pred))
      errorIn(F, BB, Idx, "structural.hardwired-write",
              "write to hardwired register " + D.str());

    // Control transfer target validity.
    if (hasBlockTarget(I.Op)) {
      if (I.Target >= F.numBlocks()) {
        errorIn(F, BB, Idx, "structural.target-range",
                "block target out of range in '" + I.str() + "'");
      } else {
        const BasicBlock &TargetBB = F.block(I.Target);
        if (I.Op == Opcode::ChkC && TargetBB.Kind != BlockKind::Stub)
          errorIn(F, BB, Idx, "structural.chkc-target",
                  "chk.c must target a stub block",
                  "point the trigger at the chk.c recovery stub");
        if (I.Op == Opcode::Spawn && TargetBB.Kind != BlockKind::Slice)
          errorIn(F, BB, Idx, "structural.spawn-target",
                  "spawn must target a slice block",
                  "speculative threads may only execute p-slice code");
        if ((I.Op == Opcode::Br || I.Op == Opcode::Jmp) &&
            TargetBB.isAttachment() != BB.isAttachment())
          errorIn(F, BB, Idx, "structural.branch-crossing",
                  "branch crosses body/attachment boundary");
      }
    }
    if (I.Op == Opcode::Call && I.Target >= P.numFuncs())
      errorIn(F, BB, Idx, "structural.call-range",
              "call target function out of range");

    // Br/Jmp/terminators must end the block; Call/ChkC/Spawn may be inline.
    bool MustBeLast = I.Op == Opcode::Br || isTerminator(I.Op);
    if (MustBeLast && !IsLast)
      errorIn(F, BB, Idx, "structural.terminator-position",
              "'" + I.str() + "' must be the last instruction");

    // SSP invariants (paper Section 2): speculative code never stores to
    // program memory and never invokes procedures or halts the machine.
    if (BB.Kind == BlockKind::Slice) {
      if (isStore(I.Op))
        errorIn(F, BB, Idx, "structural.slice-store",
                "p-slice contains a store: '" + I.str() + "'",
                "p-slices must be store-free; drop the store or convert "
                "its value into a live-in");
      switch (I.Op) {
      case Opcode::Call:
      case Opcode::CallInd:
      case Opcode::Ret:
      case Opcode::Halt:
      case Opcode::ChkC:
      case Opcode::Rfi:
        errorIn(F, BB, Idx, "structural.slice-opcode",
                "illegal opcode in p-slice: '" + I.str() + "'");
        break;
      default:
        break;
      }
    }
    if (BB.Kind == BlockKind::Stub && isStore(I.Op))
      errorIn(F, BB, Idx, "structural.stub-store",
              "stub block contains a program-memory store");
  }

  const Program &P;
  verify::DiagnosticEngine &DE;
  std::vector<bool> SeenId; ///< verifyUniqueIds' table, reused per function.
};

} // namespace

void ssp::ir::verifyStructural(const Program &P,
                               verify::DiagnosticEngine &DE) {
  VerifierImpl(P, DE).run();
}
