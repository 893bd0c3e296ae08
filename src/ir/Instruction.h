//===- ir/Instruction.h - Machine-level IR instructions -------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Instruction is one machine operation of the binary being adapted. The
/// representation matches the paper's setting where "the IR exactly matches
/// the hardware instructions in the binary": the post-pass tool reads this
/// IR, computes slices over it, and rewrites it.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_IR_INSTRUCTION_H
#define SSP_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Reg.h"

#include <cstdint>
#include <string>

namespace ssp::ir {

/// One instruction of the Itanium-like binary IR. Which fields an opcode
/// uses, and how, is fixed by its OperandForm (see ir/Opcode.h).
struct Instruction {
  Opcode Op = Opcode::Nop;
  CondCode Cond = CondCode::EQ;
  Reg Dst;
  Reg Src1;
  Reg Src2;
  int64_t Imm = 0;
  uint32_t Target = 0;

  /// Function-unique static instruction id. Assigned by the IRBuilder and
  /// preserved verbatim by the rewriter so that cache profiles collected on
  /// the original binary stay valid for the SSP-enhanced binary.
  uint32_t Id = 0;

  /// Returns the register this instruction defines, or an invalid Reg.
  Reg def() const {
    return writesDst() ? Dst : Reg();
  }

  /// Returns true if the instruction writes its Dst register.
  bool writesDst() const {
    switch (opcodeInfo(Op).Form) {
    case OperandForm::RegImm:
    case OperandForm::RegReg:
    case OperandForm::RegRegReg:
    case OperandForm::RegRegImm:
    case OperandForm::Load:
    case OperandForm::LibLoad:
      return true;
    default:
      return false;
    }
  }

  /// Calls \p Fn for every register this instruction reads, Src1 before
  /// Src2.
  template <typename CallableT> void forEachUse(CallableT Fn) const {
    switch (opcodeInfo(Op).Form) {
    case OperandForm::RegRegReg:
    case OperandForm::Store: // Address base, then the stored value.
      Fn(Src1);
      Fn(Src2);
      return;
    case OperandForm::RegReg:
    case OperandForm::RegRegImm:
    case OperandForm::Load:
    case OperandForm::Prefetch:
    case OperandForm::Branch:
    case OperandForm::CallInd:
    case OperandForm::LibStore:
      Fn(Src1);
      return;
    default:
      return;
    }
  }

  /// Renders the instruction as assembly-like text.
  std::string str() const;
};

} // namespace ssp::ir

#endif // SSP_IR_INSTRUCTION_H
