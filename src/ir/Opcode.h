//===- ir/Opcode.h - Instruction opcodes of the Itanium-like IR -----------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcodes of the machine-level IR the post-pass tool operates on. The set
/// mirrors the subset of the Itanium ISA the paper's tool manipulates: plain
/// integer/FP computation, loads/stores, compares into predicate registers,
/// predicated branches, calls — plus the SSP extensions of Section 3.4.2:
/// the `chk.c` trigger check, live-in buffer copies, thread spawn and
/// thread-kill, and the `rfi`-style return from the stub block.
///
/// Every fact about an opcode (mnemonic, operand syntax, register classes,
/// function unit, latency, and whether it loads, stores, transfers control,
/// ends a block or names a block) lives in its row of the OpcodeInfo table.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_IR_OPCODE_H
#define SSP_IR_OPCODE_H

#include "ir/Reg.h"

#include <cstdint>
#include <iterator>

namespace ssp::ir {

enum class Opcode : uint8_t {
  Nop,

  // Integer ALU (reg, reg).
  Add,
  Sub,
  Mul,
  And,
  Or,
  Xor,
  Shl,
  Shr,

  // Integer ALU (reg, immediate).
  AddI,
  MulI,
  ShlI,
  AndI,
  OrI,

  // Moves.
  Mov,  ///< Dst := Src1 (same class, Int or FP).
  MovI, ///< Dst := Imm (Int).

  // Compares into a predicate register. The condition is Instruction::Cond.
  Cmp,  ///< Dst.p := Src1 <cond> Src2.
  CmpI, ///< Dst.p := Src1 <cond> Imm.

  // Floating point (operating on FP registers).
  FAdd,
  FSub,
  FMul,
  XToF, ///< Dst.f := double(Src1.int).
  FToX, ///< Dst.int := int64(Src1.f).

  // Memory. Effective address is Src1 + Imm.
  Load,     ///< Dst.int := mem64[Src1 + Imm].
  LoadF,    ///< Dst.f := mem64[Src1 + Imm] (bits as double).
  Store,    ///< mem64[Src1 + Imm] := Src2.int.
  StoreF,   ///< mem64[Src1 + Imm] := Src2.f (bits).
  Prefetch, ///< Touch line at Src1 + Imm; no register write, never faults.

  // Control flow. Branch targets are block indices in Instruction::Target.
  Br,      ///< If Src1.pred, jump to block Target, else fall through.
  Jmp,     ///< Unconditional jump to block Target.
  Call,    ///< Call function index Target; pushes the return address.
  CallInd, ///< Call the function whose index is in Src1.int.
  Ret,     ///< Return to the pushed address.
  Halt,    ///< Terminates the program (main thread only).

  // SSP extensions (Section 3.4.2 of the paper).
  ChkC,        ///< Trigger: if a free hardware context exists, raise the
               ///< lightweight exception and run stub block Target; else nop.
  Rfi,         ///< Return from the stub block to the interrupted PC.
  CopyToLIB,   ///< LIB[slot Target] := Src1 (stub/slice live-in marshalling).
  CopyToLIBI,  ///< LIB[slot Target] := Imm (stage a constant, e.g. a trip
               ///< budget, without touching any register).
  CopyFromLIB, ///< Dst := LIB[slot Target] (slice prologue).
  Spawn,       ///< Spawn a speculative thread at block Target if a context is
               ///< free, handing it the staged live-in values; else ignored.
  KillThread,  ///< Speculative thread terminates, freeing its context.
};

/// Condition codes for Cmp/CmpI (signed comparisons).
enum class CondCode : uint8_t { EQ, NE, LT, LE, GT, GE };

/// The function-unit class an opcode executes on (paper, Table 1: 4 integer
/// units, 2 FP units, 3 branch units, 2 memory ports).
enum class FuncUnit : uint8_t { None, Int, FP, Mem, Br };

/// Units of class \p FU per cycle on the Table 1 machine, shared by the
/// simulator's issue stage and the verifier's bundle lint. None (nops)
/// occupies no unit and is unlimited.
constexpr unsigned unitsOf(FuncUnit FU) {
  constexpr unsigned Units[] = {~0u, 4, 2, 2, 3}; // None, Int, FP, Mem, Br.
  return Units[static_cast<unsigned>(FU)];
}

/// Instruction slots per issue bundle. Bundles never span a block
/// boundary (see LinkedProgram::link).
constexpr unsigned BundleSlots = 3;

/// Live-in buffer slots per spawn frame: lib.st/lib.sti/lib.ld name a slot
/// in [0, LIBSlots).
constexpr unsigned LIBSlots = 16;

/// The operand syntax of an opcode, which fixes which Instruction fields
/// carry its operands, which registers it reads (in this order) and
/// whether it writes Dst. The printer, the parser and Instruction's
/// def/use queries each switch over the form.
enum class OperandForm : uint8_t {
  None,        ///< (no operands)
  RegImm,      ///< Dst = Imm
  RegReg,      ///< Dst = Src1
  RegRegReg,   ///< Dst = Src1, Src2
  RegRegImm,   ///< Dst = Src1, Imm
  Load,        ///< Dst = [Src1 + Imm]
  Store,       ///< [Src1 + Imm] = Src2
  Prefetch,    ///< [Src1 + Imm]
  Branch,      ///< (Src1) bbTarget
  Block,       ///< bbTarget
  Call,        ///< fnTarget
  CallInd,     ///< [Src1]
  LibStore,    ///< lib[Target] = Src1
  LibStoreImm, ///< lib[Target] = Imm
  LibLoad,     ///< Dst = lib[Target]
};

/// Everything the IR, the verifier and the simulator know about one
/// opcode.
struct OpcodeInfo {
  /// Bits of Flags.
  enum Flag : uint8_t {
    Load = 1 << 0,        ///< Reads memory into Dst.
    Store = 1 << 1,       ///< Writes program memory.
    Memory = 1 << 2,      ///< Goes through the cache hierarchy.
    Control = 1 << 3,     ///< May transfer control.
    Terminator = 1 << 4,  ///< Must end its basic block.
    BlockTarget = 1 << 5, ///< Target names a basic block.
    Cond = 1 << 6,        ///< Mnemonic carries a `.cond` suffix.
  };

  const char *Name;  ///< Mnemonic (without the `.cond` suffix).
  OperandForm Form;
  FuncUnit Unit;
  /// Execution latency in cycles, excluding memory hierarchy latency for
  /// loads (added by the cache model).
  uint8_t Latency;
  /// Register class the structural verifier requires of each operand;
  /// None leaves the operand unchecked.
  RegClass Dst, Src1, Src2;
  uint8_t Flags;
};

namespace opcode_table {
// Column shorthands for the rows below.
using F = OperandForm;
using U = FuncUnit;
constexpr RegClass No = RegClass::None, Int = RegClass::Int,
                   Fp = RegClass::FP, Pr = RegClass::Pred;
constexpr uint8_t Ld = OpcodeInfo::Load, St = OpcodeInfo::Store,
                  Mem = OpcodeInfo::Memory, Ctl = OpcodeInfo::Control,
                  Term = OpcodeInfo::Terminator,
                  Blk = OpcodeInfo::BlockTarget, Cc = OpcodeInfo::Cond;

/// One row per Opcode, in enum order. Latencies follow the modeled
/// Itanium pipeline: integer multiply 3, the FMAC class 4, int/FP
/// conversion 2, and 2 for the live-in buffer, which sits in the on-chip
/// RSE backing store (L1-class). Mov's classes are unchecked here: the
/// verifier requires the same Int or FP class on both sides.
inline constexpr OpcodeInfo Rows[] = {
    // Name     Form            Unit    Lat Dst  Src1 Src2 Flags
    {"nop",     F::None,        U::None, 1, No,  No,  No,  0},
    {"add",     F::RegRegReg,   U::Int,  1, Int, Int, Int, 0},
    {"sub",     F::RegRegReg,   U::Int,  1, Int, Int, Int, 0},
    {"mul",     F::RegRegReg,   U::Int,  3, Int, Int, Int, 0},
    {"and",     F::RegRegReg,   U::Int,  1, Int, Int, Int, 0},
    {"or",      F::RegRegReg,   U::Int,  1, Int, Int, Int, 0},
    {"xor",     F::RegRegReg,   U::Int,  1, Int, Int, Int, 0},
    {"shl",     F::RegRegReg,   U::Int,  1, Int, Int, Int, 0},
    {"shr",     F::RegRegReg,   U::Int,  1, Int, Int, Int, 0},
    {"addi",    F::RegRegImm,   U::Int,  1, Int, Int, No,  0},
    {"muli",    F::RegRegImm,   U::Int,  3, Int, Int, No,  0},
    {"shli",    F::RegRegImm,   U::Int,  1, Int, Int, No,  0},
    {"andi",    F::RegRegImm,   U::Int,  1, Int, Int, No,  0},
    {"ori",     F::RegRegImm,   U::Int,  1, Int, Int, No,  0},
    {"mov",     F::RegReg,      U::Int,  1, No,  No,  No,  0},
    {"movi",    F::RegImm,      U::Int,  1, Int, No,  No,  0},
    {"cmp",     F::RegRegReg,   U::Int,  1, Pr,  Int, Int, Cc},
    {"cmpi",    F::RegRegImm,   U::Int,  1, Pr,  Int, No,  Cc},
    {"fadd",    F::RegRegReg,   U::FP,   4, Fp,  Fp,  Fp,  0},
    {"fsub",    F::RegRegReg,   U::FP,   4, Fp,  Fp,  Fp,  0},
    {"fmul",    F::RegRegReg,   U::FP,   4, Fp,  Fp,  Fp,  0},
    {"xtof",    F::RegReg,      U::Int,  2, Fp,  Int, No,  0},
    {"ftox",    F::RegReg,      U::Int,  2, Int, Fp,  No,  0},
    {"ld8",     F::Load,        U::Mem,  1, Int, Int, No,  Ld | Mem},
    {"ldf",     F::Load,        U::Mem,  1, Fp,  Int, No,  Ld | Mem},
    {"st8",     F::Store,       U::Mem,  1, No,  Int, Int, St | Mem},
    {"stf",     F::Store,       U::Mem,  1, No,  Int, Fp,  St | Mem},
    {"lfetch",  F::Prefetch,    U::Mem,  1, No,  Int, No,  Mem},
    {"br",      F::Branch,      U::Br,   1, No,  Pr,  No,  Ctl | Blk},
    {"jmp",     F::Block,       U::Br,   1, No,  No,  No,  Ctl | Term | Blk},
    {"call",    F::Call,        U::Br,   1, No,  No,  No,  Ctl},
    {"calli",   F::CallInd,     U::Br,   1, No,  Int, No,  Ctl},
    {"ret",     F::None,        U::Br,   1, No,  No,  No,  Ctl | Term},
    {"halt",    F::None,        U::Br,   1, No,  No,  No,  Ctl | Term},
    {"chk.c",   F::Block,       U::Br,   1, No,  No,  No,  Ctl | Blk},
    {"rfi",     F::None,        U::Br,   1, No,  No,  No,  Ctl | Term},
    {"lib.st",  F::LibStore,    U::Mem,  2, No,  No,  No,  0},
    {"lib.sti", F::LibStoreImm, U::Mem,  2, No,  No,  No,  0},
    {"lib.ld",  F::LibLoad,     U::Mem,  2, No,  No,  No,  0},
    {"spawn",   F::Block,       U::Br,   1, No,  No,  No,  Blk},
    {"kill",    F::None,        U::Br,   1, No,  No,  No,  Ctl | Term},
};
} // namespace opcode_table

/// Number of opcodes.
constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::KillThread) + 1;
static_assert(std::size(opcode_table::Rows) == NumOpcodes,
              "one OpcodeInfo row per Opcode");

/// Returns the table row of \p Op.
constexpr const OpcodeInfo &opcodeInfo(Opcode Op) {
  return opcode_table::Rows[static_cast<unsigned>(Op)];
}

/// Returns the function unit \p Op executes on.
constexpr FuncUnit funcUnitOf(Opcode Op) { return opcodeInfo(Op).Unit; }

/// Returns the execution latency in cycles of \p Op, excluding memory
/// hierarchy latency for loads (added by the cache model).
constexpr unsigned latencyOf(Opcode Op) { return opcodeInfo(Op).Latency; }

/// Returns true if \p Op's row carries flag \p F.
constexpr bool hasFlag(Opcode Op, OpcodeInfo::Flag F) {
  return (opcodeInfo(Op).Flags & F) != 0;
}

/// Returns true for opcodes that read or write the memory hierarchy.
constexpr bool isMemoryOp(Opcode Op) {
  return hasFlag(Op, OpcodeInfo::Memory);
}

/// Returns true for loads (Load, LoadF).
constexpr bool isLoad(Opcode Op) { return hasFlag(Op, OpcodeInfo::Load); }

/// Returns true for stores (Store, StoreF).
constexpr bool isStore(Opcode Op) { return hasFlag(Op, OpcodeInfo::Store); }

/// Returns true for opcodes that may transfer control (branches, calls,
/// returns, rfi, halt, chk.c when it fires).
constexpr bool isControlFlow(Opcode Op) {
  return hasFlag(Op, OpcodeInfo::Control);
}

/// Returns true for opcodes that must terminate a basic block.
constexpr bool isTerminator(Opcode Op) {
  return hasFlag(Op, OpcodeInfo::Terminator);
}

/// Returns true if \p Op's Target field names a basic block.
constexpr bool hasBlockTarget(Opcode Op) {
  return hasFlag(Op, OpcodeInfo::BlockTarget);
}

/// Returns the mnemonic for \p Op (without a compare's `.cond` suffix).
constexpr const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

/// Returns the mnemonic for \p CC.
const char *condName(CondCode CC);

/// Evaluates \p CC over two signed 64-bit values.
bool evalCond(CondCode CC, int64_t A, int64_t B);

} // namespace ssp::ir

#endif // SSP_IR_OPCODE_H
