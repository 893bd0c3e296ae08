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
//===----------------------------------------------------------------------===//

#ifndef SSP_IR_OPCODE_H
#define SSP_IR_OPCODE_H

#include <cstdint>

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

/// Returns the function unit \p Op executes on.
FuncUnit funcUnitOf(Opcode Op);

/// Returns the execution latency in cycles of \p Op, excluding memory
/// hierarchy latency for loads (added by the cache model).
unsigned latencyOf(Opcode Op);

/// Returns true for opcodes that read or write the memory hierarchy.
bool isMemoryOp(Opcode Op);

/// Returns true for loads (Load, LoadF).
bool isLoad(Opcode Op);

/// Returns true for stores (Store, StoreF).
bool isStore(Opcode Op);

/// Returns true for opcodes that may transfer control (branches, calls,
/// returns, rfi, halt, chk.c when it fires).
bool isControlFlow(Opcode Op);

/// Returns true for opcodes that must terminate a basic block.
bool isTerminator(Opcode Op);

/// Returns true if \p Op's Target field names a basic block.
bool hasBlockTarget(Opcode Op);

/// Returns the mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// Returns the mnemonic for \p CC.
const char *condName(CondCode CC);

/// Evaluates \p CC over two signed 64-bit values.
bool evalCond(CondCode CC, int64_t A, int64_t B);

} // namespace ssp::ir

#endif // SSP_IR_OPCODE_H
