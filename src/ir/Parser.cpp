//===- ir/Parser.cpp - Assembly-text parser for the IR --------------------===//

#include "ir/Parser.h"

#include "ir/Program.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <vector>

using namespace ssp;
using namespace ssp::ir;

namespace {

/// A tiny cursor over one line of text.
class LineCursor {
public:
  explicit LineCursor(const std::string &Line) : Text(Line) {}

  void skipSpace() {
    // Cast through unsigned char first: passing a sign-extended negative
    // char (a high-bit byte in a corrupted input) to the ctype functions
    // is undefined behaviour.
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size() || Text[Pos] == '#';
  }

  /// Consumes \p Literal (after whitespace); returns false if absent.
  bool eat(const std::string &Literal) {
    skipSpace();
    if (Text.compare(Pos, Literal.size(), Literal) != 0)
      return false;
    Pos += Literal.size();
    return true;
  }

  /// Peeks whether \p Literal comes next.
  bool peek(const std::string &Literal) {
    skipSpace();
    return Text.compare(Pos, Literal.size(), Literal) == 0;
  }

  /// Reads a token of [A-Za-z0-9_.<>-] characters.
  std::string word() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '.' || Text[Pos] == '-'))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  /// Reads a signed integer; returns false on failure (including a bare
  /// sign with no digits, which strtoll would silently read as 0). A
  /// number outside int64_t also fails and is kept in outOfRange(), which
  /// the parser reports in place of the caller's message.
  bool integer(int64_t &Out) {
    skipSpace();
    size_t Start = Pos;
    size_t Digits = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      Digits = ++Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == Digits) {
      Pos = Start;
      return false;
    }
    std::string Num = Text.substr(Start, Pos - Start);
    errno = 0;
    Out = std::strtoll(Num.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      BadNumber = std::move(Num);
      Pos = Start;
      return false;
    }
    return true;
  }

  /// The last integer integer() rejected as out of range, or empty.
  const std::string &outOfRange() const { return BadNumber; }

private:
  const std::string &Text;
  size_t Pos = 0;
  std::string BadNumber;
};

class Parser {
public:
  Parser(const std::string &Text, Program &Out, DataImage *Data)
      : Out(Out), Data(Data) {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line))
      Lines.push_back(Line);
  }

  bool run(std::string &Error) {
    // Pass 1: collect function headers so calls can be resolved by index
    // even before the callee is parsed (indices appear literally as fnN,
    // so a single pass suffices; we only validate block counts at the
    // end via the verifier-style checks the caller runs).
    for (LineNo = 0; LineNo < Lines.size(); ++LineNo) {
      LineCursor C(Lines[LineNo]);
      if (C.atEnd())
        continue;
      if (C.peek("function")) {
        InDataSection = false;
        if (!parseFunctionHeader(C))
          return fail(Error, &C);
        continue;
      }
      if (C.peek("stream ")) {
        InDataSection = false;
        if (!parseStreamLine(C))
          return fail(Error, &C);
        continue;
      }
      if (C.eat("data:")) {
        if (!C.atEnd()) {
          Msg = "trailing junk after 'data:'";
          return fail(Error);
        }
        InDataSection = true;
        continue;
      }
      if (InDataSection) {
        if (!parseDataLine(C))
          return fail(Error, &C);
        continue;
      }
      if (C.peek("bb")) {
        if (!parseBlockHeader(C))
          return fail(Error, &C);
        continue;
      }
      if (!parseInstruction(C))
        return fail(Error, &C);
    }
    if (Out.numFuncs() == 0) {
      Msg = "no functions in input";
      return fail(Error);
    }
    return true;
  }

private:
  /// Reports the current line's error. An out-of-range number on the
  /// line is the root cause of whatever message the failing rule chose.
  bool fail(std::string &Error, const LineCursor *C = nullptr) {
    if (C && !C->outOfRange().empty())
      Msg = "integer " + C->outOfRange() + " out of range";
    Error = "line " + std::to_string(LineNo + 1) + ": " + Msg;
    return false;
  }

  bool error(const std::string &M) {
    Msg = M;
    return false;
  }

  bool parseDataLine(LineCursor &C) {
    // ADDR ':' value+   (ADDR may be hex 0x... or decimal).
    uint64_t Addr = 0;
    if (!parseAddress(C, Addr))
      return false;
    if (!C.eat(":"))
      return error("expected ':' after data address");
    if ((Addr & 7) != 0)
      return error("data address must be 8-byte aligned");
    bool Any = false;
    while (!C.atEnd()) {
      // The previous word was the last one below 2^64.
      if (Any && Addr == 0)
        return error("data line runs past the end of the address space");
      int64_t V = 0;
      if (!C.integer(V))
        return error("expected data word");
      if (Data)
        Data->push_back({Addr, static_cast<uint64_t>(V)});
      Addr += 8;
      Any = true;
    }
    if (!Any)
      return error("data line has no words");
    return true;
  }

  bool parseAddress(LineCursor &C, uint64_t &Addr) {
    C.skipSpace();
    if (C.eat("0x")) {
      std::string Hex = C.word();
      if (Hex.empty())
        return error("expected hex address");
      // word() accepts identifier characters; insist on actual hex digits
      // so "0xzz" is rejected instead of silently reading as 0.
      if (Hex.size() > 16)
        return error("hex address too wide: 0x" + Hex);
      for (char Ch : Hex)
        if (!std::isxdigit(static_cast<unsigned char>(Ch)))
          return error("bad hex digit in address: 0x" + Hex);
      Addr = std::strtoull(Hex.c_str(), nullptr, 16);
      return true;
    }
    int64_t V = 0;
    if (!C.integer(V))
      return error("expected data address");
    if (V < 0)
      return error("data address must not be negative");
    Addr = static_cast<uint64_t>(V);
    return true;
  }

  bool parseFunctionHeader(LineCursor &C) {
    C.eat("function");
    std::string Name = C.word();
    if (Name.empty())
      return error("expected function name");
    if (!C.eat("(fn"))
      return error("expected (fnN) after function name");
    int64_t Idx = 0;
    if (!C.integer(Idx))
      return error("expected function index");
    if (!C.eat(")"))
      return error("expected ')'");
    if (static_cast<uint64_t>(Idx) != Out.numFuncs())
      return error("function index " + std::to_string(Idx) +
                   " out of order (expected fn" +
                   std::to_string(Out.numFuncs()) + ")");
    bool IsEntry = C.eat("[entry]");
    if (!C.eat(":"))
      return error("expected ':' after function header");
    CurFunc = &Out.addFunction(Name);
    CurBlock = ~0u;
    UnannotatedId = 0;
    UsedIds.clear();
    if (IsEntry)
      Out.setEntry(CurFunc->getIndex());
    return true;
  }

  bool parseBlockHeader(LineCursor &C) {
    if (!CurFunc)
      return error("block outside a function");
    C.eat("bb");
    int64_t Idx = 0;
    if (!C.integer(Idx))
      return error("expected block index");
    if (!C.eat("<"))
      return error("expected '<name>' after block index");
    std::string Name = C.word();
    if (!C.eat(">"))
      return error("expected '>' after block name");
    BlockKind Kind = BlockKind::Body;
    if (C.eat("[stub]"))
      Kind = BlockKind::Stub;
    else if (C.eat("[slice]"))
      Kind = BlockKind::Slice;
    if (!C.eat(":"))
      return error("expected ':' after block header");
    if (static_cast<uint64_t>(Idx) != CurFunc->numBlocks())
      return error("block index out of order");
    CurBlock = CurFunc->addBlock(Name, Kind);
    return true;
  }

  bool parseReg(LineCursor &C, Reg &Out2) {
    std::string W = C.word();
    if (W.size() < 2)
      return error("expected register, got '" + W + "'");
    char Cls = W[0];
    // The number must be all digits: strtol would quietly read "rx" as
    // r0 otherwise.
    for (size_t P = 1; P < W.size(); ++P)
      if (!std::isdigit(static_cast<unsigned char>(W[P])))
        return error("bad register '" + W + "'");
    long N = std::strtol(W.c_str() + 1, nullptr, 10);
    if (Cls == 'r' && N >= 0 && N < int(NumIntRegs))
      Out2 = ireg(unsigned(N));
    else if (Cls == 'f' && N >= 0 && N < int(NumFPRegs))
      Out2 = freg(unsigned(N));
    else if (Cls == 'p' && N >= 0 && N < int(NumPredRegs))
      Out2 = preg(unsigned(N));
    else
      return error("bad register '" + W + "'");
    return true;
  }

  /// Parses "[rB + imm]" into \p Base and \p Off.
  bool parseMemRef(LineCursor &C, Reg &Base, int64_t &Off) {
    if (!C.eat("["))
      return error("expected '['");
    if (!parseReg(C, Base))
      return false;
    if (!C.eat("+"))
      return error("expected '+' in memory operand");
    if (!C.integer(Off))
      return error("expected displacement");
    if (!C.eat("]"))
      return error("expected ']'");
    return true;
  }

  bool parseBlockRef(LineCursor &C, uint32_t &Target) {
    if (!C.eat("bb"))
      return error("expected block reference");
    int64_t N = 0;
    if (!C.integer(N))
      return error("expected block number");
    if (N < 0 || N > int64_t(~0u))
      return error("block number out of range");
    Target = static_cast<uint32_t>(N);
    return true;
  }

  bool parseCond(const std::string &Name, CondCode &CC) {
    for (CondCode K : {CondCode::EQ, CondCode::NE, CondCode::LT, CondCode::LE,
                       CondCode::GT, CondCode::GE})
      if (Name == condName(K)) {
        CC = K;
        return true;
      }
    return error("bad condition code '" + Name + "'");
  }

  /// Parses "lib[N]" into \p Slot; N must name one of the LIBSlots slots.
  bool parseLibSlot(LineCursor &C, uint32_t &Slot) {
    int64_t N = 0;
    if (!C.eat("lib[") || !C.integer(N))
      return false;
    if (N < 0 || N >= int64_t(LIBSlots))
      return error("LIB slot " + std::to_string(N) + " out of range (" +
                   std::to_string(LIBSlots) + " slots)");
    Slot = static_cast<uint32_t>(N);
    return C.eat("]");
  }

  /// Assigns \p I its static id and appends it to the current block. An
  /// explicit `@N` annotation wins; otherwise ids count up over the
  /// function's *unannotated* instructions, mirroring Program::str(),
  /// which emits an annotation exactly when an id deviates from this
  /// default. Ids must be below MaxInstId and unique within the function
  /// (the invariants ir::verifyStructural enforces); rejecting a violation
  /// here gives the error a line number.
  bool emit(Instruction I, int64_t AnnotatedId) {
    int64_t Id = AnnotatedId >= 0 ? AnnotatedId : UnannotatedId++;
    if (Id >= int64_t(MaxInstId))
      return error("instruction id @" + std::to_string(Id) +
                   " out of range (ids must be below " +
                   std::to_string(MaxInstId) + ")");
    I.Id = static_cast<uint32_t>(Id);
    if (I.Id >= UsedIds.size())
      UsedIds.resize(I.Id + 1, false);
    if (UsedIds[I.Id])
      return error("duplicate instruction id @" + std::to_string(I.Id));
    UsedIds[I.Id] = true;
    CurFunc->setInstIdWatermark(I.Id + 1);
    CurFunc->block(CurBlock).Insts.push_back(I);
    return true;
  }

  /// Reads \p I's operands in the syntax of \p Form. False with Msg
  /// unset means the operands are malformed in no more specific way.
  bool parseOperands(LineCursor &C, OperandForm Form, Instruction &I) {
    switch (Form) {
    case OperandForm::None:
      return true;
    case OperandForm::RegImm:
      return parseReg(C, I.Dst) && C.eat("=") && C.integer(I.Imm);
    case OperandForm::RegReg:
      return parseReg(C, I.Dst) && C.eat("=") && parseReg(C, I.Src1);
    case OperandForm::RegRegReg:
      return parseReg(C, I.Dst) && C.eat("=") && parseReg(C, I.Src1) &&
             C.eat(",") && parseReg(C, I.Src2);
    case OperandForm::RegRegImm:
      return parseReg(C, I.Dst) && C.eat("=") && parseReg(C, I.Src1) &&
             C.eat(",") && C.integer(I.Imm);
    case OperandForm::Load:
      return parseReg(C, I.Dst) && C.eat("=") &&
             parseMemRef(C, I.Src1, I.Imm);
    case OperandForm::Store:
      return parseMemRef(C, I.Src1, I.Imm) && C.eat("=") &&
             parseReg(C, I.Src2);
    case OperandForm::Prefetch:
      return parseMemRef(C, I.Src1, I.Imm);
    case OperandForm::Branch:
      return C.eat("(") && parseReg(C, I.Src1) && C.eat(")") &&
             parseBlockRef(C, I.Target);
    case OperandForm::Block:
      return parseBlockRef(C, I.Target);
    case OperandForm::Call: {
      int64_t N = 0;
      if (!C.eat("fn") || !C.integer(N) || N < 0 || N > int64_t(~0u))
        return false;
      I.Target = static_cast<uint32_t>(N);
      return true;
    }
    case OperandForm::CallInd:
      return C.eat("[") && parseReg(C, I.Src1) && C.eat("]");
    case OperandForm::LibStore:
      return parseLibSlot(C, I.Target) && C.eat("=") && parseReg(C, I.Src1);
    case OperandForm::LibStoreImm:
      return parseLibSlot(C, I.Target) && C.eat("=") && C.integer(I.Imm);
    case OperandForm::LibLoad:
      return parseReg(C, I.Dst) && C.eat("=") && parseLibSlot(C, I.Target);
    }
    return false;
  }

  bool parseInstruction(LineCursor &C) {
    if (!CurFunc || CurBlock == ~0u)
      return error("instruction outside a block");
    std::string Mn = C.word();

    // A compare's mnemonic is its base name plus a ".cond" suffix; every
    // other mnemonic matches a row's name whole ("chk.c", "lib.st").
    size_t Dot = Mn.find('.');
    std::string Base = Mn.substr(0, Dot);
    std::string Suffix = Dot == std::string::npos ? "" : Mn.substr(Dot + 1);
    Instruction I;
    unsigned K = 0;
    for (; K < NumOpcodes; ++K) {
      I.Op = static_cast<Opcode>(K);
      if (hasFlag(I.Op, OpcodeInfo::Cond)
              ? Base == opcodeName(I.Op) && !Suffix.empty()
              : Mn == opcodeName(I.Op))
        break;
    }
    if (K == NumOpcodes)
      return error("unknown mnemonic '" + Mn + "'");
    if (hasFlag(I.Op, OpcodeInfo::Cond) && !parseCond(Suffix, I.Cond))
      return false;
    if (!parseOperands(C, opcodeInfo(I.Op).Form, I))
      return Msg.empty() ? error("malformed operands for '" + Mn + "'")
                         : false;
    // Optional static-id annotation: `@N` pins this instruction's id (see
    // emit()). Strict like every other number: digits only, in range.
    int64_t AnnotatedId = -1;
    if (C.eat("@")) {
      if (!C.integer(AnnotatedId) || AnnotatedId < 0)
        return error("bad instruction id annotation");
    }
    if (!C.atEnd())
      return error("trailing junk after instruction");
    return emit(I, AnnotatedId);
  }

  /// "none" or a register; D keeps the invalid default for "none".
  bool parseStreamReg(LineCursor &C, Reg &R) {
    if (C.eat("none")) {
      R = Reg();
      return true;
    }
    return parseReg(C, R);
  }

  bool parseOffsetList(LineCursor &C, std::vector<int64_t> &Offs) {
    int64_t V = 0;
    if (!C.integer(V))
      return error("expected prefetch offset");
    Offs.push_back(V);
    while (C.eat(",")) {
      if (!C.integer(V))
        return error("expected prefetch offset after ','");
      Offs.push_back(V);
    }
    return true;
  }

  /// One `stream` directive (the canonical key order Program::str()
  /// emits; see ir/Stream.h for the descriptor semantics).
  bool parseStreamLine(LineCursor &C) {
    C.eat("stream");
    StreamDescriptor D;
    int64_t N = 0;
    if (!C.eat("fn") || !C.integer(N) || N < 0 || N > int64_t(~0u))
      return error("expected 'fnN' in stream directive");
    D.Func = static_cast<uint32_t>(N);
    if (!C.eat("bb") || !C.integer(N) || N < 0 || N > int64_t(~0u))
      return error("expected 'bbN' in stream directive");
    D.StubBlock = static_cast<uint32_t>(N);
    std::string K = C.word();
    if (K == "affine")
      D.Kind = StreamKind::Affine;
    else if (K == "chase")
      D.Kind = StreamKind::Chase;
    else if (K == "indirect")
      D.Kind = StreamKind::Indirect;
    else
      return error("bad stream kind '" + K + "'");
    auto Int = [&](const char *Key, int64_t &V) {
      if (!C.eat(std::string(Key) + "="))
        return error(std::string("expected '") + Key +
                     "=' in stream directive");
      if (!C.integer(V))
        return error(std::string("expected integer for '") + Key + "'");
      return true;
    };
    auto RegKey = [&](const char *Key, Reg &R) {
      if (!C.eat(std::string(Key) + "="))
        return error(std::string("expected '") + Key +
                     "=' in stream directive");
      return parseStreamReg(C, R);
    };
    int64_t Mask = 0, Elem = 0, Depth = 0;
    if (!RegKey("abase", D.AddrBase) || !RegKey("aind", D.AddrInd) ||
        !Int("amul", D.AddrMul) || !Int("aadd", D.AddrAdd) ||
        !Int("stride", D.Stride) || !Int("coff", D.ChaseOff) ||
        !RegKey("vbase", D.ValBase) || !Int("vmul", D.ValMul) ||
        !Int("vmask", Mask) || !Int("vshift", D.ValShift) ||
        !Int("vadd", D.ValAdd) || !Int("elem", Elem) ||
        !Int("depth", Depth))
      return false;
    D.ValMask = static_cast<uint64_t>(Mask);
    if (Elem <= 0 || Elem > 64)
      return error("bad stream element size");
    D.ElemBytes = static_cast<uint32_t>(Elem);
    if (Depth < 0 || Depth > int64_t(~0u))
      return error("bad stream depth");
    D.Depth = static_cast<uint32_t>(Depth);
    if (!C.eat("pf="))
      return error("expected 'pf=' in stream directive");
    if (!parseOffsetList(C, D.PrefetchOffsets))
      return false;
    if (!C.eat("ipf="))
      return error("expected 'ipf=' in stream directive");
    if (C.eat("none")) {
      D.PrefetchIndex = false;
    } else {
      D.PrefetchIndex = true;
      if (!parseOffsetList(C, D.IdxPrefetchOffsets))
        return false;
    }
    if (!C.atEnd())
      return error("trailing junk after stream directive");
    Out.addStream(D);
    return true;
  }

  Program &Out;
  DataImage *Data = nullptr;
  bool InDataSection = false;
  std::vector<std::string> Lines;
  size_t LineNo = 0;
  std::string Msg;
  Function *CurFunc = nullptr;
  uint32_t CurBlock = ~0u;
  uint32_t UnannotatedId = 0; ///< Default-id counter of the current function.
  std::vector<bool> UsedIds; ///< Ids taken in the current function.
};

} // namespace

bool ssp::ir::parseProgram(const std::string &Text, Program &Out,
                           std::string &Error, DataImage *Data) {
  return Parser(Text, Out, Data).run(Error);
}
