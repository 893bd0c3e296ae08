//===- sim/PrefetchTable.h - Open-addressed prefetched-line table ---------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-address -> origin table behind the simulator's prefetch
/// usefulness accounting (Section 4.4.1 dynamic throttling) and the
/// prefetch-lifecycle attribution. It is touched on every speculative
/// line-moving access and on every main-thread load, so it is an
/// open-addressed flat table instead of a node-based hash map: one
/// multiplicative hash, a short linear probe over three parallel arrays,
/// no allocation on the hot path.
///
/// The table starts at 2^10 slots on first insert and doubles when three
/// quarters of its slots are used, up to 2^17 slots. That cap preserves
/// the historical overflow policy exactly: the simulator clears the table
/// when the live count exceeds 2^16 entries ("stale entries lapse").
/// Tombstones left by erasures are reclaimed by a deterministic rebuild
/// when they accumulate. Growth and rebuilds change only the slot order,
/// which forEach's callers do not depend on.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_PREFETCHTABLE_H
#define SSP_SIM_PREFETCHTABLE_H

#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace ssp::sim {

/// Everything the simulator remembers about a tracked (line-moving)
/// speculative prefetch until its fate resolves: the chk.c trigger whose
/// thread moved the line, the slice it was executing, how deep in the
/// spawn chain that thread was, and whether the access was a wild load.
struct PrefetchOrigin {
  ir::StaticId Trigger = 0;
  ir::StaticId Slice = 0;
  uint32_t Depth = 0;
  bool Wild = false;
};

/// Maps 64-bit line addresses to the PrefetchOrigin of the speculative
/// access that moved the line up the hierarchy.
class PrefetchedLineTable {
  enum : uint8_t { Empty = 0, Full = 1, Tomb = 2 };
  static constexpr unsigned MinLogCap = 10;
  static constexpr unsigned MaxLogCap = 17;

public:
  /// Storage is allocated on first insert: baseline and profiling runs
  /// never touch the table, and a Simulator is built per run, so paying
  /// for zeroed arrays up front would tax exactly the runs that cannot use
  /// them.
  PrefetchedLineTable() = default;

  size_t size() const { return Live; }

  /// Pointer to the value stored for \p Line, or nullptr if absent.
  PrefetchOrigin *find(uint64_t Line) {
    if (State.empty())
      return nullptr;
    size_t I = slotOf(Line);
    while (State[I] != Empty) {
      if (State[I] == Full && Keys[I] == Line)
        return &Vals[I];
      I = (I + 1) & Mask;
    }
    return nullptr;
  }

  /// Inserts (Line, Origin); returns true when the key was absent. An
  /// existing entry's value is overwritten (matching map::insert +
  /// assignment in the original simulator code); when \p Replaced is
  /// non-null it receives the overwritten value so the caller can resolve
  /// the superseded prefetch's fate.
  bool insertOrAssign(uint64_t Line, const PrefetchOrigin &Origin,
                      PrefetchOrigin *Replaced = nullptr) {
    const size_t Cap = Mask + 1;
    if (State.empty())
      rehash(MinLogCap);
    else if (Live + Tombs >= Cap - (Cap >> 2))
      // Three quarters used: grow while live entries fill a quarter,
      // otherwise reclaim tombstones before probes can degenerate.
      rehash(LogCap < MaxLogCap && Live >= (Cap >> 2) ? LogCap + 1 : LogCap);
    size_t I = slotOf(Line);
    size_t FirstFree = SIZE_MAX;
    while (State[I] != Empty) {
      if (State[I] == Full && Keys[I] == Line) {
        if (Replaced)
          *Replaced = Vals[I];
        Vals[I] = Origin;
        return false;
      }
      if (State[I] == Tomb && FirstFree == SIZE_MAX)
        FirstFree = I;
      I = (I + 1) & Mask;
    }
    if (FirstFree != SIZE_MAX) {
      I = FirstFree;
      --Tombs;
    }
    State[I] = Full;
    Keys[I] = Line;
    Vals[I] = Origin;
    ++Live;
    return true;
  }

  /// Erases \p Line if present.
  void erase(uint64_t Line) {
    if (State.empty())
      return;
    size_t I = slotOf(Line);
    while (State[I] != Empty) {
      if (State[I] == Full && Keys[I] == Line) {
        State[I] = Tomb;
        --Live;
        ++Tombs;
        return;
      }
      I = (I + 1) & Mask;
    }
  }

  /// Visits every live entry (slot order; used to drain still-pending
  /// entries' fates at overflow clears and at end of run — the visit
  /// order does not affect the resulting counts).
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (size_t I = 0; I < State.size(); ++I)
      if (State[I] == Full)
        Visit(Keys[I], Vals[I]);
  }

  void clear() {
    std::fill(State.begin(), State.end(), uint8_t(Empty));
    Live = 0;
    Tombs = 0;
  }

private:
  size_t slotOf(uint64_t Line) const {
    return size_t((Line * 0x9E3779B97F4A7C15ULL) >> (64 - LogCap));
  }

  /// Re-inserts the live entries into 2^NewLogCap fresh slots, dropping
  /// tombstones. Deterministic and invisible to callers (no entry is added
  /// or removed).
  void rehash(unsigned NewLogCap) {
    std::vector<std::pair<uint64_t, PrefetchOrigin>> Entries;
    Entries.reserve(Live);
    forEach([&Entries](uint64_t Line, const PrefetchOrigin &Origin) {
      Entries.push_back({Line, Origin});
    });
    if (NewLogCap != LogCap) {
      LogCap = NewLogCap;
      Mask = (size_t(1) << LogCap) - 1;
      Keys.resize(Mask + 1);
      Vals.resize(Mask + 1);
    }
    State.assign(Mask + 1, Empty);
    Live = 0;
    Tombs = 0;
    for (const auto &[Line, Origin] : Entries)
      place(Line, Origin);
  }

  /// Stores a key known to be absent into its first empty probe slot.
  void place(uint64_t Line, const PrefetchOrigin &Origin) {
    size_t I = slotOf(Line);
    while (State[I] != Empty)
      I = (I + 1) & Mask;
    State[I] = Full;
    Keys[I] = Line;
    Vals[I] = Origin;
    ++Live;
  }

  std::vector<uint64_t> Keys;
  std::vector<PrefetchOrigin> Vals;
  std::vector<uint8_t> State;
  unsigned LogCap = 0; ///< log2 of the slot count once allocated.
  size_t Mask = 0;     ///< Slot count - 1 once allocated.
  size_t Live = 0;
  size_t Tombs = 0;
};

} // namespace ssp::sim

#endif // SSP_SIM_PREFETCHTABLE_H
