//===- sim/CompletionCalendar.h - Pending completions by cycle ------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One out-of-order context's issued but uncompleted instructions, filed by
/// the cycle they complete: a ring of per-cycle intrusive lists indexed by
/// the completion cycle modulo the ring size, a bitmap of the non-empty
/// buckets, and an overflow list for completions beyond the ring. Filing
/// and taking a completion cost O(1); the earliest due cycle, and whether
/// anything is filed at all, is a bitmap scan from the base cycle. The
/// entries one call of popDue takes come out in no particular order, which
/// is exact only because writeback is order-independent (DESIGN.md,
/// "Event-indexed out-of-order core").
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_COMPLETIONCALENDAR_H
#define SSP_SIM_COMPLETIONCALENDAR_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ssp::sim {

/// \p Node carries `uint64_t CompleteCycle` (its due cycle, set before
/// push) and `Node *NextDue` (its link in a bucket while it is filed, and
/// in the list popDue returns).
template <typename Node, unsigned LogBuckets = 9> class CompletionCalendar {
public:
  static constexpr uint64_t NumBuckets = uint64_t(1) << LogBuckets;

  /// Files \p N. Its CompleteCycle must not precede the base: the cycle
  /// after the last popDue.
  void push(Node *N) {
    const uint64_t Due = N->CompleteCycle;
    assert(Due >= Base && "completion filed before the calendar's base");
    if (Due - Base >= NumBuckets) {
      Overflow.push_back(N);
      OverflowMin = std::min(OverflowMin, Due);
      return;
    }
    const uint64_t B = Due & BucketMask;
    const uint64_t Bit = uint64_t(1) << (B & 63);
    uint64_t &Word = Occupied[B >> 6];
    N->NextDue = (Word & Bit) ? Heads[B] : nullptr;
    Heads[B] = N;
    Word |= Bit;
  }

  /// The earliest due cycle of a filed entry; UINT64_MAX when empty.
  uint64_t earliest() const {
    const uint64_t D = distanceToOccupied(Base & BucketMask);
    return D == NumBuckets ? OverflowMin : Base + D;
  }

  /// Takes every entry due at or before \p Now and moves the base to
  /// Now + 1. Returns the taken entries as a list linked through NextDue
  /// (null if none was due), in no particular order.
  Node *popDue(uint64_t Now) {
    if (Now != Base)
      return popAfterSkip(Now);
    // The common case, a stepped cycle after a stepped cycle: only this
    // cycle's bucket can be due.
    Node *Due = nullptr;
    const uint64_t B = Now & BucketMask;
    uint64_t &Word = Occupied[B >> 6];
    const uint64_t Bit = uint64_t(1) << (B & 63);
    if (Word & Bit) {
      Word &= ~Bit;
      Due = Heads[B];
    }
    Base = Now + 1;
    if (OverflowMin < Base + NumBuckets)
      Due = refileOverflow(Now, Due);
    return Due;
  }

  /// Drops every entry; the base stays.
  void clear() {
    std::fill(std::begin(Occupied), std::end(Occupied), 0);
    Overflow.clear();
    OverflowMin = UINT64_MAX;
  }

private:
  static constexpr uint64_t BucketMask = NumBuckets - 1;
  static constexpr unsigned NumWords = NumBuckets / 64;
  static_assert(NumWords > 0 && (NumWords & (NumWords - 1)) == 0,
                "the ring is a power-of-two number of 64-bucket words");

  /// Buckets from \p From to the first occupied one, going round the
  /// ring; NumBuckets if every bucket is empty.
  uint64_t distanceToOccupied(uint64_t From) const {
    unsigned W = static_cast<unsigned>(From >> 6);
    uint64_t Bits = Occupied[W] & (~uint64_t(0) << (From & 63));
    for (unsigned I = 0; I <= NumWords; ++I) {
      if (Bits) {
        uint64_t B = (uint64_t(W) << 6) + std::countr_zero(Bits);
        return (B - From) & BucketMask;
      }
      W = (W + 1) & (NumWords - 1);
      Bits = Occupied[W];
    }
    return NumBuckets;
  }

  /// popDue after an idle skip (or a first call): every bucket up to
  /// \p Now may be due.
  [[gnu::noinline]] Node *popAfterSkip(uint64_t Now) {
    Node *Due = nullptr;
    for (uint64_t D = distanceToOccupied(Base & BucketMask);
         D != NumBuckets && Base + D <= Now;
         D = distanceToOccupied(Base & BucketMask)) {
      const uint64_t B = (Base + D) & BucketMask;
      Occupied[B >> 6] &= ~(uint64_t(1) << (B & 63));
      Node *Tail = Heads[B];
      while (Tail->NextDue)
        Tail = Tail->NextDue;
      Tail->NextDue = Due;
      Due = Heads[B];
    }
    Base = std::max(Base, Now + 1);
    if (OverflowMin < Base + NumBuckets)
      Due = refileOverflow(Now, Due);
    return Due;
  }

  /// Takes the overflow entries due by \p Now, prepending them to \p Due,
  /// and files those now within the ring's reach.
  Node *refileOverflow(uint64_t Now, Node *Due) {
    size_t Keep = 0;
    OverflowMin = UINT64_MAX;
    for (Node *N : Overflow) {
      if (N->CompleteCycle <= Now) {
        N->NextDue = Due;
        Due = N;
      } else if (N->CompleteCycle - Base < NumBuckets) {
        push(N); // Into the ring: Overflow itself is not touched.
      } else {
        Overflow[Keep++] = N;
        OverflowMin = std::min(OverflowMin, N->CompleteCycle);
      }
    }
    Overflow.resize(Keep);
    return Due;
  }

  // What every popDue reads comes first; the bucket heads, a 4 KB array
  // of which a cycle touches one entry, come last.
  uint64_t Base = 0; ///< Ring entries are due in [Base, Base + NumBuckets).
  uint64_t OverflowMin = UINT64_MAX;
  std::vector<Node *> Overflow; ///< Due at Base + NumBuckets or later.
  uint64_t Occupied[NumWords] = {};
  Node *Heads[NumBuckets] = {}; ///< Meaningful where Occupied is set.
};

} // namespace ssp::sim

#endif // SSP_SIM_COMPLETIONCALENDAR_H
