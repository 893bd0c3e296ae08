//===- ir/Program.h - Whole-binary container and linking ------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program holds all functions of the binary. LinkedProgram is the flat,
/// address-indexed view the simulator executes: functions laid out in order,
/// each function's body blocks first and its SSP attachments appended after
/// the function, exactly as the paper's Figure 7 lays out the enhanced
/// binary. Linking resolves block targets to global addresses and assigns
/// bundle boundaries (three instructions per bundle, reset at block entry).
///
//===----------------------------------------------------------------------===//

#ifndef SSP_IR_PROGRAM_H
#define SSP_IR_PROGRAM_H

#include "ir/Function.h"
#include "ir/Stream.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ssp::ir {

/// Key identifying a static instruction across simulation and rewriting:
/// (function index, function-unique instruction id).
using StaticId = uint64_t;

inline StaticId makeStaticId(uint32_t Func, uint32_t InstId) {
  return (static_cast<uint64_t>(Func) << 32) | InstId;
}
inline uint32_t staticIdFunc(StaticId Id) {
  return static_cast<uint32_t>(Id >> 32);
}
inline uint32_t staticIdInst(StaticId Id) {
  return static_cast<uint32_t>(Id);
}

/// Exclusive bound on function-unique instruction ids. Side tables indexed
/// by id (the cache profile, per-instruction counts, the verifier's and
/// load selection's id tables) size themselves by the largest id, so the
/// program parser (`@N`) and the `.sspprof` parser reject ids at or above
/// it, and ir::verifyStructural reports them. It is far above any id the
/// workloads or the rewriter hand out.
constexpr uint32_t MaxInstId = 1u << 20;

/// A whole binary: a list of functions plus the entry function.
class Program {
public:
  /// Creates a new empty function and returns a reference to it.
  Function &addFunction(const std::string &Name) {
    uint32_t Idx = static_cast<uint32_t>(Funcs.size());
    Funcs.push_back(std::make_unique<Function>(Name, Idx));
    return *Funcs.back();
  }

  Function &func(uint32_t Idx) { return *Funcs[Idx]; }
  const Function &func(uint32_t Idx) const { return *Funcs[Idx]; }
  size_t numFuncs() const { return Funcs.size(); }

  void setEntry(uint32_t FuncIdx) { EntryFunc = FuncIdx; }
  uint32_t getEntry() const { return EntryFunc; }

  /// Total instruction count over all functions.
  size_t numInsts() const {
    size_t N = 0;
    for (const auto &F : Funcs)
      N += F->numInsts();
    return N;
  }

  /// Stream descriptors attached to classified slices (empty unless the
  /// adaptation ran with streams enabled). Keyed by (Func, StubBlock);
  /// kept in emission order. Part of the binary: they round-trip through
  /// str()/parseProgram and survive clone().
  void addStream(const StreamDescriptor &S) { StreamTable.push_back(S); }
  const std::vector<StreamDescriptor> &streams() const { return StreamTable; }
  std::vector<StreamDescriptor> &streams() { return StreamTable; }

  /// Renders the whole program as assembly-like text.
  std::string str() const;

  /// Deep-copies the program, preserving every instruction's static id (so
  /// profiles collected on the original remain valid for the copy). The
  /// rewriter adapts a clone and leaves the original untouched.
  Program clone() const;

private:
  std::vector<std::unique_ptr<Function>> Funcs;
  std::vector<StreamDescriptor> StreamTable;
  uint32_t EntryFunc = 0;
};

/// One instruction slot of the linked (flat) binary image.
struct LinkedInst {
  const Instruction *I = nullptr;
  uint32_t Func = 0;      ///< Owning function index.
  uint32_t Block = 0;     ///< Owning block index within the function.
  uint32_t TargetAddr = 0; ///< Resolved address for block-target opcodes and
                           ///< direct calls; unused otherwise.
  uint32_t BundleId = 0;  ///< Global bundle number (3 instructions/bundle).
  StaticId Sid = 0;       ///< Stable static id for profiles.
};

/// The predecoded form of one linked instruction: everything the executor
/// and the timing cores consult per dynamic instance, resolved once at link
/// time. Register operands are dense per-thread indices (Reg::denseIndex),
/// the function unit and latency are pre-looked-up, and control/LIB targets
/// are final (a branch target is a global address, not a block index).
struct DecodedInst {
  /// Sentinel dense register index: "no register" / hardwired write target.
  static constexpr uint16_t NoReg = 0xFFFF;

  Opcode Op = Opcode::Nop;
  CondCode Cond = CondCode::EQ;
  FuncUnit FU = FuncUnit::None;
  uint8_t Latency = 1;   ///< Execution latency (latencyOf), sans cache.
  uint8_t NumUses = 0;   ///< Number of entries in Uses[].
  bool DstIsPred = false; ///< Writes a predicate (writes normalize to 0/1).

  uint16_t Src1 = 0;     ///< Dense index of Src1 (0 if the slot is unused;
                         ///< never read by opcodes without that operand).
  uint16_t Src2 = 0;     ///< Dense index of Src2 (same convention).
  /// Register reads in Instruction::forEachUse order — the order the
  /// scoreboard checks and the Figure-10 attribution depend on.
  uint16_t Uses[2] = {0, 0};
  /// Timing def: dense index the scoreboard/rename map tracks for this
  /// instruction (Instruction::def), or NoReg if it writes no register.
  /// Includes hardwired destinations — a def of r0 still occupies the
  /// scoreboard slot, exactly as the non-decoded path behaved.
  uint16_t Def = NoReg;
  /// Functional write target: like Def but NoReg also for the hardwired
  /// r0/p0, whose architectural writes are dropped.
  uint16_t WDst = NoReg;

  /// Pre-resolved target: a global address for block-target opcodes and
  /// direct calls, the LIB slot for lib.st/lib.sti/lib.ld, and the raw
  /// Instruction::Target otherwise.
  uint32_t Target = 0;
  int64_t Imm = 0;
};

/// The executable image: a flat array of instructions with resolved control
/// transfer targets. Immutable snapshot of a Program; relink after rewriting.
/// Simulation reads only the image: the entry address, the predecoded
/// instructions and a copy of the stream descriptors are recorded at link
/// time, so the Program may move (its functions are heap-allocated, and
/// LinkedInst::I stays valid) once it is linked.
class LinkedProgram {
public:
  /// Lays out and links \p P. The Program's functions must outlive the
  /// result and must not be mutated while the LinkedProgram is in use.
  static LinkedProgram link(const Program &P);

  const LinkedInst &at(uint32_t Addr) const { return Code[Addr]; }
  uint32_t size() const { return static_cast<uint32_t>(Code.size()); }

  /// The predecoded form of the instruction at \p Addr (parallel to Code).
  const DecodedInst &decoded(uint32_t Addr) const { return Decoded[Addr]; }

  /// Address of the first instruction of \p FuncIdx.
  uint32_t funcEntry(uint32_t FuncIdx) const { return FuncEntries[FuncIdx]; }

  /// Address of the first instruction of block \p BlockIdx in \p FuncIdx.
  uint32_t blockStart(uint32_t FuncIdx, uint32_t BlockIdx) const {
    return BlockStarts[FuncIdx][BlockIdx];
  }

  /// Number of functions (the bound of an indirect call's index).
  uint32_t numFuncs() const {
    return static_cast<uint32_t>(FuncEntries.size());
  }

  /// Address of the program entry point.
  uint32_t entry() const { return Entry; }

  /// The stream descriptors of the linked program, copied at link time.
  const std::vector<StreamDescriptor> &streams() const { return Streams; }

  /// The source Program, as it was linked. Only the profiler and the
  /// tools' listings read it (the simulator never does); the Program must
  /// still be at the address it was linked from.
  const Program &program() const { return *Prog; }

private:
  const Program *Prog = nullptr;
  uint32_t Entry = 0;
  std::vector<StreamDescriptor> Streams;
  std::vector<LinkedInst> Code;
  std::vector<DecodedInst> Decoded;
  std::vector<uint32_t> FuncEntries;
  std::vector<std::vector<uint32_t>> BlockStarts;
};

} // namespace ssp::ir

#endif // SSP_IR_PROGRAM_H
