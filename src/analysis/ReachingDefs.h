//===- analysis/ReachingDefs.h - Register reaching definitions ------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic reaching-definitions dataflow over one function's registers.
/// Uses with no intra-function reaching definition are *live-in uses*: the
/// value comes from a caller, which is where the context-sensitive slicer
/// continues up the call stack (paper Section 3.1) and what the live-in
/// analysis of the code generator marshals through the LIB.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_ANALYSIS_REACHINGDEFS_H
#define SSP_ANALYSIS_REACHINGDEFS_H

#include "analysis/CFG.h"
#include "analysis/InstRef.h"
#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace ssp::analysis {

/// Reaching definitions for every register of one function. Calls are
/// treated as transparent (registers are physical and the modeled machine
/// does not rename across calls); definitions made *inside* callees are
/// handled separately by the interprocedural slicer via callee summaries.
class ReachingDefs {
public:
  static ReachingDefs build(const ir::Program &P, uint32_t Func,
                            const CFG &G);

  /// Calls \p Fn(const InstRef &) for every intra-function definition of
  /// \p R that reaches the program point just before instruction
  /// (\p Block, \p Inst), in layout order, and returns whether the entry
  /// value of \p R may reach it too (mayBeLiveIn). \p Scratch is a
  /// caller-owned reused id buffer (per-thread in parallel adaptation;
  /// this analysis stays const-shared and holds no mutable state).
  template <typename Fn>
  bool forEachReachingDef(uint32_t Block, uint32_t Inst, ir::Reg R,
                          std::vector<uint32_t> &Scratch, Fn &&F) const {
    bool EntrySurvives = stateBefore(Block, Inst, R, &Scratch);
    for (uint32_t Id : Scratch)
      F(Defs[Id]);
    return EntrySurvives;
  }

  /// True if some path from the function entry reaches (\p Block, \p Inst)
  /// with no definition of \p R: the value may come from the caller.
  bool mayBeLiveIn(uint32_t Block, uint32_t Inst, ir::Reg R) const {
    return stateBefore(Block, Inst, R, nullptr);
  }

  /// All definition sites in the function, in layout order.
  const std::vector<InstRef> &allDefs() const { return Defs; }

  /// Ids (indices into allDefs) of the definitions of dense register
  /// \p Dense, in layout order.
  const std::vector<uint32_t> &defIdsOf(unsigned Dense) const {
    return DefsOfReg[Dense];
  }

private:
  /// The state of \p R just before (\p Block, \p Inst): fills \p DefsOut,
  /// when non-null, with the reaching def ids and returns whether the entry
  /// value survives. Costs the block's own defs plus, when none of them
  /// redefines \p R first, one pass over the defs of \p R.
  bool stateBefore(uint32_t Block, uint32_t Inst, ir::Reg R,
                   std::vector<uint32_t> *DefsOut) const;

  const ir::Program *Prog = nullptr;
  uint32_t Func = 0;

  std::vector<InstRef> Defs;              ///< Def id -> site.
  std::vector<ir::Reg> DefRegs;           ///< Def id -> register.
  std::vector<std::vector<uint32_t>> DefsOfReg; ///< DenseReg -> def ids.
  /// Block -> its first def id; the block's defs are the ids up to
  /// BlockDefBegin[Block + 1] (none for attachment blocks).
  std::vector<uint32_t> BlockDefBegin;
  std::vector<support::BitVector> In;     ///< Block -> reaching def ids.
  std::vector<support::BitVector> EntryReachesIn; ///< Block -> per-reg "no
                                          ///< def on some path from entry".
};

} // namespace ssp::analysis

#endif // SSP_ANALYSIS_REACHINGDEFS_H
