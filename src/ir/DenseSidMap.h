//===- ir/DenseSidMap.h - Dense map keyed by StaticId ---------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense two-level map keyed by ir::StaticId, replacing the hash maps that
/// used to sit on the simulator's per-cycle hot paths (the per-PC cache
/// profile and the per-trigger prefetch-health table). A StaticId packs
/// (function index, function-unique instruction id); both components are
/// small and compact for any one program, so a vector-of-vectors slot table
/// gives O(1) lookup with two array indexations and no hashing. Entries are
/// additionally kept in a flat insertion-order vector, so iteration visits
/// only occupied keys, in a deterministic order.
///
/// SparseSidMap is the same map over a hashed slot index, for keys read
/// from input text (profile::ProfileData::Loads): a dense row is as wide
/// as the largest id in its function, and no id in an input may size a
/// table.
///
/// The maps intentionally mirror the subset of the std::unordered_map API
/// their users rely on: operator[], find/at/count, empty/size/clear, and
/// iteration over (StaticId, T) pairs. There is no erase — no user removes
/// entries.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_IR_DENSESIDMAP_H
#define SSP_IR_DENSESIDMAP_H

#include "ir/Program.h"

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ssp::ir {

template <typename T, bool Sparse> class SidMap {
  using EntryVec = std::vector<std::pair<StaticId, T>>;

public:
  using iterator = typename EntryVec::iterator;
  using const_iterator = typename EntryVec::const_iterator;

  /// Returns the value for \p Sid, default-constructing it on first use.
  /// The reference is invalidated by the next insertion (like vector).
  T &operator[](StaticId Sid) {
    int32_t &Slot = slotOf(Sid);
    if (Slot < 0) {
      Slot = static_cast<int32_t>(Entries.size());
      Entries.emplace_back(Sid, T());
    }
    return Entries[static_cast<size_t>(Slot)].second;
  }

  const_iterator find(StaticId Sid) const {
    int32_t Slot = peekSlot(Sid);
    return Slot < 0 ? Entries.end() : Entries.begin() + Slot;
  }
  iterator find(StaticId Sid) {
    int32_t Slot = peekSlot(Sid);
    return Slot < 0 ? Entries.end() : Entries.begin() + Slot;
  }

  const T &at(StaticId Sid) const {
    int32_t Slot = peekSlot(Sid);
    assert(Slot >= 0 && "SidMap::at on absent key");
    return Entries[static_cast<size_t>(Slot)].second;
  }

  size_t count(StaticId Sid) const { return peekSlot(Sid) < 0 ? 0 : 1; }

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }

  void clear() {
    Entries.clear();
    Slots.clear();
  }

  iterator begin() { return Entries.begin(); }
  iterator end() { return Entries.end(); }
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }

private:
  /// Slot reference for \p Sid, growing the table as needed (-1 = absent).
  int32_t &slotOf(StaticId Sid) {
    if constexpr (Sparse) {
      return Slots.try_emplace(Sid, -1).first->second;
    } else {
      uint32_t Func = staticIdFunc(Sid);
      uint32_t Inst = staticIdInst(Sid);
      // Widen before the + 1: an id of 2^32 - 1 must not wrap to size 0.
      if (Func >= Slots.size())
        Slots.resize(size_t(Func) + 1);
      std::vector<int32_t> &Row = Slots[Func];
      if (Inst >= Row.size())
        Row.resize(size_t(Inst) + 1, -1);
      return Row[Inst];
    }
  }

  /// Slot for \p Sid without growing (-1 = absent).
  int32_t peekSlot(StaticId Sid) const {
    if constexpr (Sparse) {
      auto It = Slots.find(Sid);
      return It == Slots.end() ? -1 : It->second;
    } else {
      uint32_t Func = staticIdFunc(Sid);
      uint32_t Inst = staticIdInst(Sid);
      if (Func >= Slots.size() || Inst >= Slots[Func].size())
        return -1;
      return Slots[Func][Inst];
    }
  }

  /// [func][inst] -> entry index, or one hash node per key when Sparse.
  std::conditional_t<Sparse, std::unordered_map<StaticId, int32_t>,
                     std::vector<std::vector<int32_t>>>
      Slots;
  EntryVec Entries; ///< Occupied keys, insertion order.
};

template <typename T> using DenseSidMap = SidMap<T, false>;
template <typename T> using SparseSidMap = SidMap<T, true>;

} // namespace ssp::ir

#endif // SSP_IR_DENSESIDMAP_H
