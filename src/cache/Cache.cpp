//===- cache/Cache.cpp - Three-level cache hierarchy ----------------------===//

#include "cache/Cache.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace ssp;
using namespace ssp::cache;

//===----------------------------------------------------------------------===//
// CacheLevel
//===----------------------------------------------------------------------===//

CacheLevel::CacheLevel(const CacheParams &P) : Params(P) {
  // Line addresses are below 2^63 once the line has two bytes or more, so
  // the stored tag LineAddr + 1 never wraps to the invalid marker.
  assert(P.LineBytes > 1 && P.Assoc > 0 && "degenerate cache geometry");
  assert(P.SizeBytes % (P.LineBytes * P.Assoc) == 0 &&
         "cache size must be divisible by way size");
  NumSets = P.SizeBytes / (P.LineBytes * P.Assoc);
  assert(NumSets > 0 && "cache must have at least one set");
  if ((NumSets & (NumSets - 1)) == 0)
    SetMask = NumSets - 1;
  Tags.assign(static_cast<size_t>(NumSets) * P.Assoc, 0);
  LastUse.assign(Tags.size(), 0);
}

bool CacheLevel::lookup(uint64_t LineAddr) {
  size_t Base = static_cast<size_t>(setOf(LineAddr)) * Params.Assoc;
  const uint64_t *T = &Tags[Base];
  const uint64_t Key = LineAddr + 1;
  for (uint32_t W = 0; W < Params.Assoc; ++W) {
    if (T[W] == Key) {
      LastUse[Base + W] = ++UseClock;
      return true;
    }
  }
  return false;
}

bool CacheLevel::contains(uint64_t LineAddr) const {
  const uint64_t *T =
      &Tags[static_cast<size_t>(setOf(LineAddr)) * Params.Assoc];
  const uint64_t Key = LineAddr + 1;
  for (uint32_t W = 0; W < Params.Assoc; ++W)
    if (T[W] == Key)
      return true;
  return false;
}

void CacheLevel::insert(uint64_t LineAddr) {
  size_t Base = static_cast<size_t>(setOf(LineAddr)) * Params.Assoc;
  uint64_t *T = &Tags[Base];
  const uint64_t *U = &LastUse[Base];
  const uint64_t Key = LineAddr + 1;
  uint32_t Victim = 0;
  for (uint32_t W = 0; W < Params.Assoc; ++W) {
    if (T[W] == Key) {
      LastUse[Base + W] = ++UseClock; // Already present; refresh.
      return;
    }
    if (T[W] == 0) {
      Victim = W;
      break;
    }
    if (U[W] < U[Victim])
      Victim = W;
  }
  T[Victim] = Key;
  LastUse[Base + Victim] = ++UseClock;
}

void CacheLevel::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  UseClock = 0;
}

//===----------------------------------------------------------------------===//
// TLB
//===----------------------------------------------------------------------===//

void TLB::unlink(uint8_t Slot) {
  uint8_t P = PrevS[Slot], N = NextS[Slot];
  if (P != NoSlot)
    NextS[P] = N;
  else
    Head = N;
  if (N != NoSlot)
    PrevS[N] = P;
  else
    Tail = P;
}

void TLB::pushFront(uint8_t Slot) {
  PrevS[Slot] = NoSlot;
  NextS[Slot] = Head;
  if (Head != NoSlot)
    PrevS[Head] = Slot;
  Head = Slot;
  if (Tail == NoSlot)
    Tail = Slot;
}

void TLB::eraseCell(uint32_t Hole) {
  // A later entry of the run may fill the hole when the hole lies on its
  // probe path, i.e. between its home cell and its cell.
  for (uint32_t J = (Hole + 1) & (Cells - 1); Index[J] != NoSlot;
       J = (J + 1) & (Cells - 1)) {
    uint32_t Home = homeOf(PageOf[Index[J]]);
    if (((J - Home) & (Cells - 1)) >= ((J - Hole) & (Cells - 1))) {
      Index[Hole] = Index[J];
      Hole = J;
    }
  }
  Index[Hole] = NoSlot;
}

bool TLB::touch(uint64_t Page) {
  uint32_t Cell = homeOf(Page);
  for (; Index[Cell] != NoSlot; Cell = (Cell + 1) & (Cells - 1)) {
    uint8_t Slot = Index[Cell];
    if (PageOf[Slot] == Page) {
      if (Head != Slot) {
        unlink(Slot);
        pushFront(Slot);
      }
      return true;
    }
  }
  uint8_t Slot;
  if (Used < Slots) {
    Slot = static_cast<uint8_t>(Used++);
  } else {
    Slot = Tail;
    uint32_t Victim = homeOf(PageOf[Slot]);
    while (Index[Victim] != Slot)
      Victim = (Victim + 1) & (Cells - 1);
    eraseCell(Victim);
    unlink(Slot);
    // The shift may have opened a cell earlier on Page's probe path.
    Cell = homeOf(Page);
    while (Index[Cell] != NoSlot)
      Cell = (Cell + 1) & (Cells - 1);
  }
  PageOf[Slot] = Page;
  Index[Cell] = Slot;
  pushFront(Slot);
  return false;
}

void TLB::clear() {
  std::fill(std::begin(Index), std::end(Index), NoSlot);
  Used = 0;
  Head = Tail = NoSlot;
}

//===----------------------------------------------------------------------===//
// CacheHierarchy
//===----------------------------------------------------------------------===//

CacheHierarchy::CacheHierarchy(const CacheConfig &Cfg, unsigned NumThreads)
    : Cfg(Cfg), L1(Cfg.L1), L2(Cfg.L2), L3(Cfg.L3) {
  assert(Cfg.L1.LineBytes > 0 &&
         (Cfg.L1.LineBytes & (Cfg.L1.LineBytes - 1)) == 0 &&
         "line size must be a power of two");
  while ((1u << LineShift) != Cfg.L1.LineBytes)
    ++LineShift;
  Fill.resize(Cfg.FillBufferEntries);
  TLBs.resize(NumThreads);
  TLBLastPage.resize(NumThreads, 0);
  TLBLastValid.resize(NumThreads, 0);
}

CacheHierarchy::FillEntry *CacheHierarchy::findInFlight(uint64_t LineAddr,
                                                        uint64_t Cycle) {
  for (FillEntry &E : Fill) {
    if (!E.Valid)
      continue;
    if (E.ReadyCycle <= Cycle) {
      E.Valid = false; // Fill completed; retire lazily.
      continue;
    }
    if (E.LineAddr == LineAddr)
      return &E;
  }
  return nullptr;
}

uint64_t CacheHierarchy::allocateFill(uint64_t LineAddr, uint64_t ReadyCycle,
                                      Level From, uint64_t Cycle) {
  FillEntry *Victim = nullptr;
  uint64_t EarliestReady = UINT64_MAX;
  for (FillEntry &E : Fill) {
    if (!E.Valid || E.ReadyCycle <= Cycle) {
      E.Valid = false;
      Victim = &E;
      break;
    }
    if (E.ReadyCycle < EarliestReady) {
      EarliestReady = E.ReadyCycle;
      Victim = &E;
    }
  }
  assert(Victim && "fill buffer has no entries at all");
  uint64_t ExtraWait = 0;
  if (Victim->Valid) {
    // All 16 entries busy: the request waits for the earliest completion.
    ExtraWait = EarliestReady - Cycle;
    Tot.FillBufferStallCycles += ExtraWait;
  }
  Victim->Valid = true;
  Victim->LineAddr = LineAddr;
  Victim->ReadyCycle = ReadyCycle + ExtraWait;
  Victim->From = From;
  if (Victim->ReadyCycle > FillLatestReady)
    FillLatestReady = Victim->ReadyCycle;
  return ExtraWait;
}

uint32_t CacheHierarchy::tlbAccess(unsigned Tid, uint64_t Addr) {
  uint64_t Page = Addr >> 12;
  if (TLBLastValid[Tid] && TLBLastPage[Tid] == Page)
    return 0;
  TLBLastPage[Tid] = Page;
  TLBLastValid[Tid] = 1;
  if (TLBs[Tid].touch(Page))
    return 0;
  ++Tot.TLBMisses;
  return CacheConfig::TLBMissPenalty;
}

AccessResult CacheHierarchy::access(uint64_t Addr, uint64_t Cycle,
                                    ir::StaticId Pc, unsigned Tid,
                                    bool CollectProfile) {
  AccessResult R;
  ++Tot.Accesses;

  // Idealized modes (Figure 2): the access behaves as an L1 hit and leaves
  // the cache state untouched.
  if (PerfectMemory || (!PerfectLoads.empty() && PerfectLoads.count(Pc))) {
    R.ServedBy = Level::L1;
    R.Latency = Cfg.L1.LatencyCycles;
    R.ReadyCycle = Cycle + R.Latency;
    ++Tot.Hits[0];
    if (CollectProfile) {
      PcCacheStats &S = Profile[Pc];
      ++S.Accesses;
      ++S.Hits[0];
    }
    return R;
  }

  uint64_t Line = lineOf(Addr);
  uint32_t TLBPenalty = tlbAccess(Tid, Addr);

  // Once every fill has landed, the 16-entry in-flight scan cannot match:
  // skip it. (Stale Valid flags are harmless — both findInFlight and
  // allocateFill treat ReadyCycle <= Cycle as free.)
  FillEntry *E = Cycle < FillLatestReady ? findInFlight(Line, Cycle) : nullptr;

  // A line already in transit to L1 is a partial hit (Figure 9).
  if (E) {
    R.ServedBy = E->From;
    R.Partial = true;
    R.ReadyCycle = E->ReadyCycle + TLBPenalty;
    R.Latency = static_cast<uint32_t>(R.ReadyCycle - Cycle);
  } else if (L1.lookup(Line)) {
    // Fast path: the overwhelmingly common L1 hit. Bypass the generic
    // level-indexed bookkeeping below; bail out immediately when the access
    // does not feed the per-PC profile (speculative touches and stores).
    R.ServedBy = Level::L1;
    R.Latency = Cfg.L1.LatencyCycles + TLBPenalty;
    R.ReadyCycle = Cycle + R.Latency;
    ++Tot.Hits[0];
    if (CollectProfile) {
      PcCacheStats &S = Profile[Pc];
      ++S.Accesses;
      ++S.Hits[0];
      if (R.Latency > Cfg.L1.LatencyCycles)
        S.MissCycles += R.Latency - Cfg.L1.LatencyCycles;
    }
    return R;
  } else {
    // L1 miss: walk down the hierarchy, then install the line everywhere
    // and occupy a fill-buffer entry until the data arrives at L1.
    if (L2.lookup(Line)) {
      R.ServedBy = Level::L2;
      R.Latency = Cfg.L2.LatencyCycles;
    } else if (L3.lookup(Line)) {
      R.ServedBy = Level::L3;
      R.Latency = Cfg.L3.LatencyCycles;
      L2.insert(Line);
    } else {
      R.ServedBy = Level::Mem;
      R.Latency = Cfg.MemLatency;
      L3.insert(Line);
      L2.insert(Line);
    }
    R.Latency += TLBPenalty;
    uint64_t ExtraWait =
        allocateFill(Line, Cycle + R.Latency, R.ServedBy, Cycle);
    R.Latency += static_cast<uint32_t>(ExtraWait);
    R.ReadyCycle = Cycle + R.Latency;
    L1.insert(Line);
  }

  unsigned LevelIdx = static_cast<unsigned>(R.ServedBy);
  if (R.Partial)
    ++Tot.Partials[LevelIdx];
  else
    ++Tot.Hits[LevelIdx];

  if (CollectProfile) {
    PcCacheStats &S = Profile[Pc];
    ++S.Accesses;
    if (R.Partial)
      ++S.Partials[LevelIdx];
    else
      ++S.Hits[LevelIdx];
    if (R.Latency > Cfg.L1.LatencyCycles)
      S.MissCycles += R.Latency - Cfg.L1.LatencyCycles;
  }
  return R;
}

void CacheHierarchy::warmAccess(uint64_t Addr, ir::StaticId Pc, unsigned Tid) {
  // The idealized modes leave cache state untouched; warming is a no-op.
  if (PerfectMemory || (!PerfectLoads.empty() && PerfectLoads.count(Pc)))
    return;
  uint64_t Line = lineOf(Addr);

  // TLB state evolution, minus the penalty bookkeeping. The one-entry MRU
  // filter makes the repeated-page case (the common one in warmed loops)
  // two compares.
  uint64_t Page = Addr >> 12;
  if (!TLBLastValid[Tid] || TLBLastPage[Tid] != Page) {
    TLBLastPage[Tid] = Page;
    TLBLastValid[Tid] = 1;
    TLBs[Tid].touch(Page);
  }

  if (L1.lookup(Line))
    return;
  if (!L2.lookup(Line)) {
    if (!L3.lookup(Line))
      L3.insert(Line);
    L2.insert(Line);
  }
  L1.insert(Line);
}

void CacheHierarchy::reset() {
  L1.reset();
  L2.reset();
  L3.reset();
  for (FillEntry &E : Fill)
    E.Valid = false;
  FillLatestReady = 0;
  for (TLB &T : TLBs)
    T.clear();
  std::fill(TLBLastValid.begin(), TLBLastValid.end(), 0);
  Profile.clear();
  Tot = Totals();
}
