//===- ir/Parser.h - Assembly-text parser for the IR ----------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the assembly-like text format that Program::str() prints, so
/// programs round-trip through text. This is the convenient way to author
/// workloads or golden-test the rewriter: write the binary as text, parse,
/// adapt, print.
///
/// Grammar (one instruction per line; '#' starts a comment):
///
///   program   := function+
///   function  := "function" NAME "(fn" N ")" ["[entry]"] ":" block+
///   block     := "bb" N "<" NAME ">" ["[stub]"|"[slice]"] ":" inst*
///   inst      := mnemonic operands ["@" N]   (exactly the printer's syntax)
///
/// The optional `@N` suffix pins the instruction's static id. Without it,
/// ids count up over the function's unannotated instructions — the same
/// default Program::str() assumes, which emits `@N` exactly where an id
/// deviates (in practice: the chk.c triggers a rewrite inserts mid-block
/// after allocating attachment ids). Ids must be unique per function and
/// below ir::MaxInstId (2^20), whether annotated or counted.
/// Profiles have their own text format (`.sspprof`, see
/// profile/ProfileIO.h) keyed by these ids, so a (program, profile) pair
/// round-trips through text with sid-keyed data intact.
///
/// Examples of instruction syntax accepted (and printed):
///
///   movi r1 = 1048576          add r2 = r2, r6      cmp.lt p1 = r1, r4
///   ld8 r3 = [r1 + 8]          st8 [r11 + 0] = r2   lfetch [r3 + 0]
///   br (p1) bb1                jmp bb2              call fn1
///   calli [r5]                 ret                  halt
///   chk.c bb6                  rfi                  spawn bb3
///   lib.st lib[0] = r1         lib.sti lib[2] = 42  lib.ld r1 = lib[0]
///   kill                       nop
///
/// Each mnemonic's operand syntax is its ir::OperandForm. A `lib[N]` slot
/// must lie in [0, ir::LIBSlots), i.e. 0 to 15; any other slot is a
/// located error, like a number outside int64_t.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_IR_PARSER_H
#define SSP_IR_PARSER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ssp::ir {

class Program;

/// Initial data-image words parsed from `data:` sections:
/// (address, value) pairs in file order.
using DataImage = std::vector<std::pair<uint64_t, uint64_t>>;

/// Parses \p Text into \p Out (which must be empty). On failure returns
/// false and sets \p Error to "line N: message".
///
/// Besides functions, the text may contain `data:` sections assigning
/// initial memory words (collected into \p Data when non-null):
///
///   data:
///     0x8000: 0
///     0x100000: 12 34 -5     # consecutive 64-bit words
bool parseProgram(const std::string &Text, Program &Out, std::string &Error,
                  DataImage *Data = nullptr);

} // namespace ssp::ir

#endif // SSP_IR_PARSER_H
