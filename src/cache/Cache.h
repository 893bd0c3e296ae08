//===- cache/Cache.h - Three-level cache hierarchy with fill buffer -------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory hierarchy of the research Itanium model (paper, Table 1):
/// separate 16KB 4-way L1 (we model the data side; instruction fetch is
/// modeled as always hitting), a shared 256KB 4-way L2, a shared 3072KB
/// 12-way L3, 64-byte lines everywhere, a 16-entry fill buffer, 230-cycle
/// memory and a 30-cycle TLB miss penalty. The fill buffer tracks lines in
/// transit so that a second access to an in-flight line becomes a *partial*
/// hit, the category Figure 9 of the paper reports.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CACHE_CACHE_H
#define SSP_CACHE_CACHE_H

#include "ir/DenseSidMap.h"
#include "ir/Program.h"

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace ssp::cache {

/// Where an access was served from.
enum class Level : uint8_t { L1 = 0, L2 = 1, L3 = 2, Mem = 3 };

inline const char *levelName(Level L) {
  switch (L) {
  case Level::L1:
    return "L1";
  case Level::L2:
    return "L2";
  case Level::L3:
    return "L3";
  case Level::Mem:
    return "Mem";
  }
  return "?";
}

/// Geometry and latency of one cache level.
struct CacheParams {
  uint32_t SizeBytes;
  uint32_t Assoc;
  uint32_t LineBytes;
  uint32_t LatencyCycles;
  bool operator==(const CacheParams &) const = default;
};

/// Full hierarchy configuration. Defaults are the paper's Table 1; the
/// per-thread TLB, which no experiment varies, is constant.
struct CacheConfig {
  CacheParams L1 = {16 * 1024, 4, 64, 2};
  CacheParams L2 = {256 * 1024, 4, 64, 14};
  CacheParams L3 = {3072 * 1024, 12, 64, 30};
  uint32_t MemLatency = 230;
  uint32_t FillBufferEntries = 16;
  static constexpr uint32_t TLBEntries = 64;
  static constexpr uint32_t TLBMissPenalty = 30;
  bool operator==(const CacheConfig &) const = default;
};

/// The outcome of one data access.
struct AccessResult {
  Level ServedBy = Level::L1;
  bool Partial = false;        ///< Line was already in transit to L1.
  uint32_t Latency = 0;        ///< Load-to-use latency in cycles.
  uint64_t ReadyCycle = 0;     ///< Cycle the value becomes available.
};

/// One set-associative, LRU, write-allocate cache array.
class CacheLevel {
public:
  explicit CacheLevel(const CacheParams &P);

  /// Returns true and refreshes LRU state if \p LineAddr is present.
  bool lookup(uint64_t LineAddr);

  /// Returns true if \p LineAddr is present, without updating LRU state.
  bool contains(uint64_t LineAddr) const;

  /// Inserts \p LineAddr, evicting the LRU way of its set if needed.
  void insert(uint64_t LineAddr);

  /// Drops every line (used between simulation phases).
  void reset();

  uint32_t latency() const { return Params.LatencyCycles; }

private:
  /// Set index of a *line address* (already divided by the line size). For
  /// the common power-of-two geometries this is a mask; degenerate sweep
  /// configurations fall back to modulo. NumSets > 0 is asserted at
  /// construction.
  uint32_t setOf(uint64_t LineAddr) const {
    if (SetMask != 0)
      return static_cast<uint32_t>(LineAddr & SetMask);
    return static_cast<uint32_t>(LineAddr % NumSets);
  }

  CacheParams Params;
  uint32_t NumSets;
  uint32_t SetMask = 0; ///< NumSets - 1 when NumSets is a power of two.
  /// NumSets * Assoc ways, set-major, in two parallel arrays so a probe
  /// reads only tags: LineAddr + 1 (0 marks an invalid way) and the
  /// way's last-use stamp.
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> LastUse;
  uint64_t UseClock = 0;
};

/// One fully-associative exact-LRU translation buffer in O(1) per touch,
/// with no allocation after construction. CacheConfig::TLBEntries fixed
/// page slots carry an intrusive LRU list (MRU at Head), and a page->slot
/// index twice that size resolves a page in a probe or two: open
/// addressing with a multiplicative hash and linear probing, where an
/// eviction closes its gap by backward-shift deletion, so the index needs
/// no tombstones. Eviction picks the list tail — the same entry a
/// least-use-stamp scan would pick — so the resident-page set evolves
/// exactly as in the classic stamp implementation.
class TLB {
public:
  TLB() { clear(); }

  /// Touches \p Page: returns true on a hit (refreshing recency), false
  /// on a miss (inserting, evicting the LRU page when all
  /// CacheConfig::TLBEntries slots are full).
  bool touch(uint64_t Page);

  /// Drops every translation.
  void clear();

private:
  static constexpr uint32_t Slots = CacheConfig::TLBEntries;
  static constexpr uint32_t Cells = 2 * Slots; ///< Index load <= 1/2.
  static constexpr unsigned LogCells = 7;
  static_assert(Cells == 1u << LogCells && Slots < 255,
                "the index is a power of two and slot numbers fit a byte");
  static constexpr uint8_t NoSlot = 0xff;

  /// The index cell where a probe for \p Page starts.
  static uint32_t homeOf(uint64_t Page) {
    return static_cast<uint32_t>((Page * 0x9E3779B97F4A7C15ULL) >>
                                 (64 - LogCells));
  }
  /// Empties index cell \p Hole, shifting the rest of its probe run back.
  void eraseCell(uint32_t Hole);
  void unlink(uint8_t Slot);
  void pushFront(uint8_t Slot);

  uint64_t PageOf[Slots] = {};                  ///< Slot -> resident page.
  uint8_t PrevS[Slots] = {}, NextS[Slots] = {}; ///< Intrusive LRU list.
  uint8_t Index[Cells];                         ///< Page -> slot, or NoSlot.
  uint32_t Used = 0;                            ///< Slots [0, Used) hold pages.
  uint8_t Head = NoSlot, Tail = NoSlot;
};

/// Per-static-load hit/miss statistics, keyed by ir::StaticId. This is both
/// the cache profile the tool's delinquent-load identification consumes
/// (Section 3.1) and the data behind the paper's Figure 9.
struct PcCacheStats {
  uint64_t Accesses = 0;
  uint64_t Hits[4] = {0, 0, 0, 0};     ///< Indexed by Level.
  uint64_t Partials[4] = {0, 0, 0, 0}; ///< Partial hits, by fetch level.
  uint64_t MissCycles = 0; ///< Total latency beyond an L1 hit.

  uint64_t l1Misses() const {
    return Hits[1] + Hits[2] + Hits[3] + Partials[1] + Partials[2] +
           Partials[3];
  }
};

/// Dense (two-array-indexations, no hashing) per-StaticId profile map; the
/// profile update sits on the simulator's issue path for every main-thread
/// load, so lookup cost is visible in end-to-end wall clock.
using CacheProfile = ir::DenseSidMap<PcCacheStats>;

/// The full shared hierarchy, including the fill buffer and per-thread TLBs.
class CacheHierarchy {
public:
  explicit CacheHierarchy(const CacheConfig &Cfg = CacheConfig(),
                          unsigned NumThreads = 4);

  /// Performs one data access at time \p Cycle for static load \p Pc from
  /// hardware thread \p Tid. When \p CollectProfile is set, the access is
  /// recorded in the per-PC profile (main-thread demand loads only).
  AccessResult access(uint64_t Addr, uint64_t Cycle, ir::StaticId Pc,
                      unsigned Tid, bool CollectProfile);

  /// Functional-warming touch: evolves the replacement state (TLB and the
  /// three LRU arrays) exactly as a demand access from thread \p Tid would,
  /// but models no timing — no fill buffer, no latency, no counters, no
  /// profile. An order of magnitude cheaper than access(); this is what
  /// keeps the sampled simulator's functional level fast (see
  /// sim::warmForward). The approximation relative to access(): a warmed
  /// miss installs its line instantly instead of occupying a fill-buffer
  /// entry, so a detailed interval never starts with warm-initiated fills
  /// still in flight.
  void warmAccess(uint64_t Addr, ir::StaticId Pc, unsigned Tid);

  /// When enabled, every access hits in L1 (Figure 2's "perfect memory").
  void setPerfectMemory(bool Enable) { PerfectMemory = Enable; }

  /// Loads in \p Ids always hit L1 (Figure 2's "perfect delinquent loads").
  void setPerfectLoads(std::unordered_set<ir::StaticId> Ids) {
    PerfectLoads = std::move(Ids);
  }

  const CacheProfile &profile() const { return Profile; }
  CacheProfile &profile() { return Profile; }

  const CacheConfig &config() const { return Cfg; }

  /// Global counters (all threads, all accesses).
  struct Totals {
    uint64_t Accesses = 0;
    uint64_t Hits[4] = {0, 0, 0, 0};
    uint64_t Partials[4] = {0, 0, 0, 0};
    uint64_t FillBufferStallCycles = 0;
    uint64_t TLBMisses = 0;
  };
  const Totals &totals() const { return Tot; }

  /// Drops all cached state and statistics.
  void reset();

private:
  struct FillEntry {
    uint64_t LineAddr = 0;
    uint64_t ReadyCycle = 0;
    Level From = Level::Mem;
    bool Valid = false;
  };

  /// Line address of \p Addr.
  uint64_t lineOf(uint64_t Addr) const { return Addr >> LineShift; }

  /// Looks up \p LineAddr in the fill buffer; returns entry or nullptr.
  FillEntry *findInFlight(uint64_t LineAddr, uint64_t Cycle);

  /// Allocates a fill-buffer entry; if all 16 are busy the request waits for
  /// the earliest retirement, and the extra wait is returned.
  uint64_t allocateFill(uint64_t LineAddr, uint64_t ReadyCycle, Level From,
                        uint64_t Cycle);

  /// Simple per-thread fully-associative LRU TLB; returns the penalty.
  uint32_t tlbAccess(unsigned Tid, uint64_t Addr);

  CacheConfig Cfg;
  CacheLevel L1, L2, L3;
  unsigned LineShift = 0; ///< log2(L1.LineBytes), a power of two.
  std::vector<FillEntry> Fill;
  /// Latest ReadyCycle over all fill-buffer allocations: when the current
  /// cycle is past it, no fill can be in flight and the 16-entry scan is
  /// skipped entirely (the common L1-hit fast path).
  uint64_t FillLatestReady = 0;
  std::vector<TLB> TLBs; ///< One per hardware thread.
  /// One-entry MRU filter per thread: consecutive accesses to the same page
  /// skip the TLB probe. Skipping the recency refresh on those hits cannot
  /// change eviction decisions — the filtered entry already sits at the
  /// head of the LRU list until another page is touched.
  std::vector<uint64_t> TLBLastPage;
  std::vector<uint8_t> TLBLastValid;
  CacheProfile Profile;
  Totals Tot;
  bool PerfectMemory = false;
  std::unordered_set<ir::StaticId> PerfectLoads;
};

} // namespace ssp::cache

#endif // SSP_CACHE_CACHE_H
