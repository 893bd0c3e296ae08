//===- sim/WrittenRegs.h - Registers defined since a reset ----------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The set of dense register indices a hardware context has defined since
/// its last reset. A spawn resets the new context's per-register state
/// (register values, scoreboard, rename map); every other index still holds
/// its reset value, so the reset clears only the indices in this set
/// instead of all 320 of each array.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_WRITTENREGS_H
#define SSP_SIM_WRITTENREGS_H

#include "ir/Program.h"
#include "ir/Reg.h"

#include <bit>
#include <cstdint>

namespace ssp::sim {

class WrittenRegs {
public:
  /// Marks the timing def of \p D. Def is a superset of the functional
  /// write target WDst: it includes the hardwired r0/p0, whose defs still
  /// take a scoreboard and rename-map slot.
  void note(const ir::DecodedInst &D) {
    if (D.Def != ir::DecodedInst::NoReg)
      Words[D.Def >> 6] |= uint64_t(1) << (D.Def & 63);
  }

  bool contains(unsigned Index) const {
    return (Words[Index >> 6] >> (Index & 63)) & 1;
  }

  /// Calls \p F on each marked index in ascending order and empties the
  /// set.
  template <typename Fn> void drain(Fn &&F) {
    for (unsigned W = 0; W < NumWords; ++W) {
      for (uint64_t Bits = Words[W]; Bits; Bits &= Bits - 1)
        F(W * 64 + static_cast<unsigned>(std::countr_zero(Bits)));
      Words[W] = 0;
    }
  }

private:
  static constexpr unsigned NumWords = (ir::Reg::NumDenseIndices + 63) / 64;
  uint64_t Words[NumWords] = {};
};

} // namespace ssp::sim

#endif // SSP_SIM_WRITTENREGS_H
