//===- tests/opcode_table_test.cpp - The opcode table against its origins -===//
//
// Every fact about an opcode lives in one OpcodeInfo row (ir/Opcode.h).
// The rows replaced per-opcode switches in six files; this test keeps
// local copies of those switches and compares them with the table-driven
// code over all opcodes: the classifiers, unit and latency, mnemonic,
// defs and uses, the printed text, and the structural verifier's
// register-class diagnostics (ids, messages and order) for every class
// assignment of the three register operands. The parser is pinned by a
// corpus of instruction lines and their results
// (tests/golden/instruction_lines.txt).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Program.h"
#include "ir/Verifier.h"
#include "verify/Diagnostic.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace ssp;
using namespace ssp::ir;

namespace {

//===----------------------------------------------------------------------===//
// The replaced per-opcode switches, verbatim in behaviour.
//===----------------------------------------------------------------------===//

FuncUnit refFuncUnitOf(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
    return FuncUnit::None;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::ShlI:
  case Opcode::AndI:
  case Opcode::OrI:
  case Opcode::Mov:
  case Opcode::MovI:
  case Opcode::Cmp:
  case Opcode::CmpI:
  case Opcode::XToF:
  case Opcode::FToX:
    return FuncUnit::Int;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
    return FuncUnit::FP;
  case Opcode::Load:
  case Opcode::LoadF:
  case Opcode::Store:
  case Opcode::StoreF:
  case Opcode::Prefetch:
  case Opcode::CopyToLIB:
  case Opcode::CopyToLIBI:
  case Opcode::CopyFromLIB:
    return FuncUnit::Mem;
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Call:
  case Opcode::CallInd:
  case Opcode::Ret:
  case Opcode::Halt:
  case Opcode::ChkC:
  case Opcode::Rfi:
  case Opcode::Spawn:
  case Opcode::KillThread:
    return FuncUnit::Br;
  }
  return FuncUnit::None;
}

unsigned refLatencyOf(Opcode Op) {
  switch (Op) {
  case Opcode::Mul:
  case Opcode::MulI:
    return 3;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
    return 4;
  case Opcode::XToF:
  case Opcode::FToX:
    return 2;
  case Opcode::CopyToLIB:
  case Opcode::CopyToLIBI:
  case Opcode::CopyFromLIB:
    return 2;
  default:
    return 1;
  }
}

bool refIsMemoryOp(Opcode Op) {
  switch (Op) {
  case Opcode::Load:
  case Opcode::LoadF:
  case Opcode::Store:
  case Opcode::StoreF:
  case Opcode::Prefetch:
    return true;
  default:
    return false;
  }
}

bool refIsLoad(Opcode Op) { return Op == Opcode::Load || Op == Opcode::LoadF; }

bool refIsStore(Opcode Op) {
  return Op == Opcode::Store || Op == Opcode::StoreF;
}

bool refIsControlFlow(Opcode Op) {
  switch (Op) {
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Call:
  case Opcode::CallInd:
  case Opcode::Ret:
  case Opcode::Halt:
  case Opcode::ChkC:
  case Opcode::Rfi:
  case Opcode::KillThread:
    return true;
  default:
    return false;
  }
}

bool refIsTerminator(Opcode Op) {
  switch (Op) {
  case Opcode::Jmp:
  case Opcode::Ret:
  case Opcode::Halt:
  case Opcode::Rfi:
  case Opcode::KillThread:
    return true;
  default:
    return false;
  }
}

bool refHasBlockTarget(Opcode Op) {
  switch (Op) {
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::ChkC:
  case Opcode::Spawn:
    return true;
  default:
    return false;
  }
}

const char *refOpcodeName(Opcode Op) {
  static const char *const Names[] = {
      "nop",    "add",   "sub",     "mul",    "and",    "or",    "xor",
      "shl",    "shr",   "addi",    "muli",   "shli",   "andi",  "ori",
      "mov",    "movi",  "cmp",     "cmpi",   "fadd",   "fsub",  "fmul",
      "xtof",   "ftox",  "ld8",     "ldf",    "st8",    "stf",   "lfetch",
      "br",     "jmp",   "call",    "calli",  "ret",    "halt",  "chk.c",
      "rfi",    "lib.st", "lib.sti", "lib.ld", "spawn", "kill"};
  static_assert(std::size(Names) == NumOpcodes);
  return Names[static_cast<unsigned>(Op)];
}

bool refWritesDst(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::ShlI:
  case Opcode::AndI:
  case Opcode::OrI:
  case Opcode::Mov:
  case Opcode::MovI:
  case Opcode::Cmp:
  case Opcode::CmpI:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::XToF:
  case Opcode::FToX:
  case Opcode::Load:
  case Opcode::LoadF:
  case Opcode::CopyFromLIB:
    return true;
  default:
    return false;
  }
}

std::vector<Reg> refUses(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Nop:
  case Opcode::MovI:
  case Opcode::Jmp:
  case Opcode::Call:
  case Opcode::Ret:
  case Opcode::Halt:
  case Opcode::ChkC:
  case Opcode::Rfi:
  case Opcode::Spawn:
  case Opcode::KillThread:
  case Opcode::CopyFromLIB:
  case Opcode::CopyToLIBI:
    return {};
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Cmp:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::Store:
  case Opcode::StoreF:
    return {I.Src1, I.Src2};
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::ShlI:
  case Opcode::AndI:
  case Opcode::OrI:
  case Opcode::Mov:
  case Opcode::CmpI:
  case Opcode::XToF:
  case Opcode::FToX:
  case Opcode::Load:
  case Opcode::LoadF:
  case Opcode::Prefetch:
  case Opcode::Br:
  case Opcode::CallInd:
  case Opcode::CopyToLIB:
    return {I.Src1};
  }
  return {};
}

std::string refStr(const Instruction &I) {
  std::string S = refOpcodeName(I.Op);
  if (I.Op == Opcode::Cmp || I.Op == Opcode::CmpI) {
    S += '.';
    S += condName(I.Cond);
  }
  auto Append = [&S](const std::string &Part) { S += " " + Part; };
  auto Imm = std::to_string(I.Imm), Target = std::to_string(I.Target);
  switch (I.Op) {
  case Opcode::Nop:
  case Opcode::Ret:
  case Opcode::Halt:
  case Opcode::Rfi:
  case Opcode::KillThread:
    break;
  case Opcode::MovI:
    Append(I.Dst.str() + " = " + Imm);
    break;
  case Opcode::Mov:
  case Opcode::XToF:
  case Opcode::FToX:
    Append(I.Dst.str() + " = " + I.Src1.str());
    break;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Cmp:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
    Append(I.Dst.str() + " = " + I.Src1.str() + ", " + I.Src2.str());
    break;
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::ShlI:
  case Opcode::AndI:
  case Opcode::OrI:
  case Opcode::CmpI:
    Append(I.Dst.str() + " = " + I.Src1.str() + ", " + Imm);
    break;
  case Opcode::Load:
  case Opcode::LoadF:
    Append(I.Dst.str() + " = [" + I.Src1.str() + " + " + Imm + "]");
    break;
  case Opcode::Store:
  case Opcode::StoreF:
    Append("[" + I.Src1.str() + " + " + Imm + "] = " + I.Src2.str());
    break;
  case Opcode::Prefetch:
    Append("[" + I.Src1.str() + " + " + Imm + "]");
    break;
  case Opcode::Br:
    Append("(" + I.Src1.str() + ") bb" + Target);
    break;
  case Opcode::Jmp:
  case Opcode::ChkC:
  case Opcode::Spawn:
    Append("bb" + Target);
    break;
  case Opcode::Call:
    Append("fn" + Target);
    break;
  case Opcode::CallInd:
    Append("[" + I.Src1.str() + "]");
    break;
  case Opcode::CopyToLIB:
    Append("lib[" + Target + "] = " + I.Src1.str());
    break;
  case Opcode::CopyToLIBI:
    Append("lib[" + Target + "] = " + Imm);
    break;
  case Opcode::CopyFromLIB:
    Append(I.Dst.str() + " = lib[" + Target + "]");
    break;
  }
  return S;
}

/// The register-class messages the replaced verifier switch reported for
/// \p I, in order (all under check id structural.regclass).
std::vector<std::string> refClassMessages(const Instruction &I) {
  std::vector<std::string> Msgs;
  auto WantClass = [&](Reg R, RegClass C, const char *What) {
    if (R.Cls != C)
      Msgs.push_back(std::string(What) + " has wrong register class in '" +
                     I.str() + "'");
  };
  switch (I.Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
    WantClass(I.Dst, RegClass::Int, "dst");
    WantClass(I.Src1, RegClass::Int, "src1");
    WantClass(I.Src2, RegClass::Int, "src2");
    break;
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::ShlI:
  case Opcode::AndI:
  case Opcode::OrI:
  case Opcode::MovI:
    WantClass(I.Dst, RegClass::Int, "dst");
    if (I.Op != Opcode::MovI)
      WantClass(I.Src1, RegClass::Int, "src1");
    break;
  case Opcode::Mov:
    if (I.Dst.Cls != I.Src1.Cls || (!I.Dst.isInt() && !I.Dst.isFP()))
      Msgs.push_back("mov operands must be same Int/FP class");
    break;
  case Opcode::Cmp:
    WantClass(I.Dst, RegClass::Pred, "dst");
    WantClass(I.Src1, RegClass::Int, "src1");
    WantClass(I.Src2, RegClass::Int, "src2");
    break;
  case Opcode::CmpI:
    WantClass(I.Dst, RegClass::Pred, "dst");
    WantClass(I.Src1, RegClass::Int, "src1");
    break;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
    WantClass(I.Dst, RegClass::FP, "dst");
    WantClass(I.Src1, RegClass::FP, "src1");
    WantClass(I.Src2, RegClass::FP, "src2");
    break;
  case Opcode::XToF:
    WantClass(I.Dst, RegClass::FP, "dst");
    WantClass(I.Src1, RegClass::Int, "src1");
    break;
  case Opcode::FToX:
    WantClass(I.Dst, RegClass::Int, "dst");
    WantClass(I.Src1, RegClass::FP, "src1");
    break;
  case Opcode::Load:
    WantClass(I.Dst, RegClass::Int, "dst");
    WantClass(I.Src1, RegClass::Int, "base");
    break;
  case Opcode::LoadF:
    WantClass(I.Dst, RegClass::FP, "dst");
    WantClass(I.Src1, RegClass::Int, "base");
    break;
  case Opcode::Store:
    WantClass(I.Src1, RegClass::Int, "base");
    WantClass(I.Src2, RegClass::Int, "value");
    break;
  case Opcode::StoreF:
    WantClass(I.Src1, RegClass::Int, "base");
    WantClass(I.Src2, RegClass::FP, "value");
    break;
  case Opcode::Prefetch:
    WantClass(I.Src1, RegClass::Int, "base");
    break;
  case Opcode::Br:
    WantClass(I.Src1, RegClass::Pred, "predicate");
    break;
  case Opcode::CallInd:
    WantClass(I.Src1, RegClass::Int, "target");
    break;
  case Opcode::CopyToLIB:
    if (!I.Src1.isValid())
      Msgs.push_back("lib.st needs a source register");
    break;
  case Opcode::CopyFromLIB:
    if (!I.Dst.isValid())
      Msgs.push_back("lib.ld needs a destination register");
    break;
  default:
    break;
  }
  return Msgs;
}

//===----------------------------------------------------------------------===//
// Helpers.
//===----------------------------------------------------------------------===//

std::vector<Opcode> allOpcodes() {
  std::vector<Opcode> Ops;
  for (unsigned K = 0; K < NumOpcodes; ++K)
    Ops.push_back(static_cast<Opcode>(K));
  return Ops;
}

Reg regOfClass(RegClass C, unsigned Num) {
  return C == RegClass::None ? Reg() : Reg(C, static_cast<uint8_t>(Num));
}

/// The structural.regclass messages the verifier reports for \p I as the
/// only instruction of a one-block function.
std::vector<std::string> classMessages(const Instruction &I) {
  Program P;
  Function &F = P.addFunction("f");
  F.block(F.addBlock("b", BlockKind::Body)).Insts.push_back(I);
  F.setInstIdWatermark(1);
  verify::DiagnosticEngine DE;
  verifyStructural(P, DE);
  std::vector<std::string> Msgs;
  for (const verify::Diagnostic &D : DE.diagnostics())
    if (D.CheckId == "structural.regclass")
      Msgs.push_back(D.Message);
  return Msgs;
}

} // namespace

TEST(OpcodeTable, FactsMatchTheReplacedSwitches) {
  for (Opcode Op : allOpcodes()) {
    SCOPED_TRACE(refOpcodeName(Op));
    EXPECT_EQ(funcUnitOf(Op), refFuncUnitOf(Op));
    EXPECT_EQ(latencyOf(Op), refLatencyOf(Op));
    EXPECT_EQ(isMemoryOp(Op), refIsMemoryOp(Op));
    EXPECT_EQ(isLoad(Op), refIsLoad(Op));
    EXPECT_EQ(isStore(Op), refIsStore(Op));
    EXPECT_EQ(isControlFlow(Op), refIsControlFlow(Op));
    EXPECT_EQ(isTerminator(Op), refIsTerminator(Op));
    EXPECT_EQ(hasBlockTarget(Op), refHasBlockTarget(Op));
    EXPECT_STREQ(opcodeName(Op), refOpcodeName(Op));
  }
}

TEST(OpcodeTable, DefsUsesAndTextMatchTheReplacedSwitches) {
  for (Opcode Op : allOpcodes()) {
    SCOPED_TRACE(refOpcodeName(Op));
    for (CondCode CC : {CondCode::EQ, CondCode::GE}) {
      Instruction I;
      I.Op = Op;
      I.Cond = CC;
      I.Dst = ireg(7);
      I.Src1 = freg(8);
      I.Src2 = preg(9);
      I.Imm = -42;
      I.Target = 5;
      EXPECT_EQ(I.writesDst(), refWritesDst(Op));
      EXPECT_EQ(I.def(), refWritesDst(Op) ? I.Dst : Reg());
      std::vector<Reg> Uses;
      I.forEachUse([&](Reg R) { Uses.push_back(R); });
      EXPECT_EQ(Uses, refUses(I));
      EXPECT_EQ(I.str(), refStr(I));
    }
  }
}

TEST(OpcodeTable, RegisterClassChecksMatchTheReplacedSwitch) {
  const RegClass Classes[] = {RegClass::None, RegClass::Int, RegClass::FP,
                              RegClass::Pred};
  for (Opcode Op : allOpcodes())
    for (RegClass D : Classes)
      for (RegClass S1 : Classes)
        for (RegClass S2 : Classes) {
          Instruction I;
          I.Op = Op;
          I.Dst = regOfClass(D, 1);
          I.Src1 = regOfClass(S1, 2);
          I.Src2 = regOfClass(S2, 3);
          I.Target = 0;
          SCOPED_TRACE(I.str());
          std::vector<std::string> Want;
          for (const std::string &M : refClassMessages(I))
            Want.push_back("in f bb0: " + M);
          EXPECT_EQ(classMessages(I), Want);
        }
}

TEST(OpcodeTable, ParserCorpusMatchesThePinnedResults) {
  std::ifstream In(SSP_SOURCE_DIR "/tests/golden/instruction_lines.txt");
  ASSERT_TRUE(In.good()) << "tests/golden/instruction_lines.txt not found";
  std::string Row;
  unsigned Rows = 0;
  while (std::getline(In, Row)) {
    if (Row.empty() || Row[0] == '#')
      continue;
    size_t Tab = Row.find('\t');
    ASSERT_NE(Tab, std::string::npos) << Row;
    const std::string Line = Row.substr(0, Tab);
    SCOPED_TRACE(Line);
    Program P;
    std::string Err, Got;
    if (parseProgram("function f (fn0) [entry]:\n  bb0 <b>:\n    " + Line +
                         "\n",
                     P, Err)) {
      const Instruction &I = P.func(0).block(0).Insts.at(0);
      Got = "ok " + I.str() + " @" + std::to_string(I.Id);
    } else {
      Got = "error " + Err;
    }
    EXPECT_EQ(Got, Row.substr(Tab + 1));
    ++Rows;
  }
  EXPECT_GT(Rows, 1000u);
}
