//===- tests/flat_structures_test.cpp - Flat host structures vs. originals ===//
//
// The simulator's per-access host structures are flat arrays: SimMemory's
// page directory, CacheLevel's split tag/stamp arrays, the growing
// PrefetchedLineTable and the TLB's fixed slots and open-addressed index.
// Its per-cycle and per-spawn bookkeeping is too: the out-of-order
// completion calendar's ring of per-cycle buckets, and the written-register
// set that bounds a spawn's reset. Each test here drives one of them and a
// test-local copy of the structure it replaced with the same seeded
// operation stream, and requires every answer to agree.
//
//===----------------------------------------------------------------------===//

#include "cache/Cache.h"
#include "mem/SimMemory.h"
#include "sim/CompletionCalendar.h"
#include "sim/PrefetchTable.h"
#include "sim/ThreadContext.h"
#include "sim/WrittenRegs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <iterator>
#include <random>
#include <tuple>
#include <unordered_map>
#include <vector>

using namespace ssp;

namespace {

//===----------------------------------------------------------------------===//
// The replaced structures, as they were.
//===----------------------------------------------------------------------===//

/// Set-associative LRU array of {Tag, LastUse, Valid} ways.
class WayCache {
public:
  explicit WayCache(const cache::CacheParams &P)
      : Assoc(P.Assoc), NumSets(P.SizeBytes / (P.LineBytes * P.Assoc)),
        Ways(static_cast<size_t>(NumSets) * Assoc) {}

  bool lookup(uint64_t LineAddr) {
    Way *Base = set(LineAddr);
    for (uint32_t W = 0; W < Assoc; ++W)
      if (Base[W].Valid && Base[W].Tag == LineAddr) {
        Base[W].LastUse = ++UseClock;
        return true;
      }
    return false;
  }
  bool contains(uint64_t LineAddr) {
    Way *Base = set(LineAddr);
    for (uint32_t W = 0; W < Assoc; ++W)
      if (Base[W].Valid && Base[W].Tag == LineAddr)
        return true;
    return false;
  }
  void insert(uint64_t LineAddr) {
    Way *Base = set(LineAddr);
    Way *Victim = &Base[0];
    for (uint32_t W = 0; W < Assoc; ++W) {
      if (Base[W].Valid && Base[W].Tag == LineAddr) {
        Base[W].LastUse = ++UseClock;
        return;
      }
      if (!Base[W].Valid) {
        Victim = &Base[W];
        break;
      }
      if (Base[W].LastUse < Victim->LastUse)
        Victim = &Base[W];
    }
    Victim->Valid = true;
    Victim->Tag = LineAddr;
    Victim->LastUse = ++UseClock;
  }
  void reset() {
    for (Way &W : Ways)
      W.Valid = false;
    UseClock = 0;
  }

private:
  struct Way {
    uint64_t Tag = 0;
    uint64_t LastUse = 0;
    bool Valid = false;
  };
  Way *set(uint64_t LineAddr) {
    return &Ways[static_cast<size_t>(LineAddr % NumSets) * Assoc];
  }
  uint32_t Assoc, NumSets;
  std::vector<Way> Ways;
  uint64_t UseClock = 0;
};

/// Fixed 2^17-slot open-addressed line table.
class FixedLineTable {
  enum : uint8_t { Empty = 0, Full = 1, Tomb = 2 };
  static constexpr unsigned LogCap = 17;
  static constexpr size_t Cap = size_t(1) << LogCap;

public:
  size_t size() const { return Live; }
  sim::PrefetchOrigin *find(uint64_t Line) {
    if (State.empty())
      return nullptr;
    for (size_t I = slotOf(Line); State[I] != Empty; I = (I + 1) & (Cap - 1))
      if (State[I] == Full && Keys[I] == Line)
        return &Vals[I];
    return nullptr;
  }
  bool insertOrAssign(uint64_t Line, const sim::PrefetchOrigin &Origin,
                      sim::PrefetchOrigin *Replaced) {
    if (State.empty()) {
      Keys.assign(Cap, 0);
      Vals.assign(Cap, sim::PrefetchOrigin());
      State.assign(Cap, Empty);
    }
    if (Live + Tombs >= Cap - (Cap >> 2))
      rebuild();
    size_t I = slotOf(Line);
    size_t FirstFree = Cap;
    while (State[I] != Empty) {
      if (State[I] == Full && Keys[I] == Line) {
        *Replaced = Vals[I];
        Vals[I] = Origin;
        return false;
      }
      if (State[I] == Tomb && FirstFree == Cap)
        FirstFree = I;
      I = (I + 1) & (Cap - 1);
    }
    if (FirstFree != Cap) {
      I = FirstFree;
      --Tombs;
    }
    State[I] = Full;
    Keys[I] = Line;
    Vals[I] = Origin;
    ++Live;
    return true;
  }
  void erase(uint64_t Line) {
    if (State.empty())
      return;
    for (size_t I = slotOf(Line); State[I] != Empty; I = (I + 1) & (Cap - 1))
      if (State[I] == Full && Keys[I] == Line) {
        State[I] = Tomb;
        --Live;
        ++Tombs;
        return;
      }
  }
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
  void rebuild() {
    std::vector<std::pair<uint64_t, sim::PrefetchOrigin>> Entries;
    forEach([&](uint64_t L, const sim::PrefetchOrigin &O) {
      Entries.push_back({L, O});
    });
    clear();
    sim::PrefetchOrigin Unused;
    for (const auto &[L, O] : Entries)
      insertOrAssign(L, O, &Unused);
  }
  std::vector<uint64_t> Keys;
  std::vector<sim::PrefetchOrigin> Vals;
  std::vector<uint8_t> State;
  size_t Live = 0;
  size_t Tombs = 0;
};

/// Sparse memory as a page-number -> page hash map.
class MapMemory {
public:
  bool readMaybe(uint64_t Addr, uint64_t &Value) const {
    if ((Addr & 7) != 0)
      return false;
    auto It = Pages.find(Addr / mem::PageSize);
    if (It == Pages.end())
      return false;
    Value = It->second[(Addr % mem::PageSize) / 8];
    return true;
  }
  void write(uint64_t Addr, uint64_t Value) {
    std::vector<uint64_t> &P = Pages[Addr / mem::PageSize];
    if (P.empty())
      P.assign(mem::PageSize / 8, 0);
    P[(Addr % mem::PageSize) / 8] = Value;
  }
  size_t numPages() const { return Pages.size(); }

private:
  std::unordered_map<uint64_t, std::vector<uint64_t>> Pages;
};

/// Exact-LRU TLB as a page->slot hash map over growing slot vectors and
/// an intrusive LRU list.
class MapTLB {
public:
  bool touch(uint64_t Page) {
    auto It = Map.find(Page);
    if (It != Map.end()) {
      uint32_t Slot = It->second;
      if (Head != Slot) {
        unlink(Slot);
        pushFront(Slot);
      }
      return true;
    }
    uint32_t Slot;
    if (PageOf.size() < cache::CacheConfig::TLBEntries) {
      Slot = static_cast<uint32_t>(PageOf.size());
      PageOf.push_back(Page);
      PrevS.push_back(NoSlot);
      NextS.push_back(NoSlot);
    } else {
      Slot = Tail;
      Map.erase(PageOf[Slot]);
      unlink(Slot);
      PageOf[Slot] = Page;
    }
    Map.emplace(Page, Slot);
    pushFront(Slot);
    return false;
  }
  void clear() {
    PageOf.clear();
    PrevS.clear();
    NextS.clear();
    Head = Tail = NoSlot;
    Map.clear();
  }

private:
  static constexpr uint32_t NoSlot = UINT32_MAX;
  void unlink(uint32_t Slot) {
    uint32_t P = PrevS[Slot], N = NextS[Slot];
    (P != NoSlot ? NextS[P] : Head) = N;
    (N != NoSlot ? PrevS[N] : Tail) = P;
  }
  void pushFront(uint32_t Slot) {
    PrevS[Slot] = NoSlot;
    NextS[Slot] = Head;
    if (Head != NoSlot)
      PrevS[Head] = Slot;
    Head = Slot;
    if (Tail == NoSlot)
      Tail = Slot;
  }
  std::vector<uint64_t> PageOf;
  std::vector<uint32_t> PrevS, NextS;
  uint32_t Head = NoSlot, Tail = NoSlot;
  std::unordered_map<uint64_t, uint32_t> Map;
};

bool sameOrigin(const sim::PrefetchOrigin &A, const sim::PrefetchOrigin &B) {
  return A.Trigger == B.Trigger && A.Slice == B.Slice && A.Depth == B.Depth &&
         A.Wild == B.Wild;
}

/// A pending completion as the calendar files it.
struct CalNode {
  uint64_t CompleteCycle = 0;
  CalNode *NextDue = nullptr;
};

/// The out-of-order core's completion calendar before the ring: a min-heap
/// of (CompleteCycle, entry).
class HeapCalendar {
public:
  bool empty() const { return Heap.empty(); }
  void push(CalNode *N) {
    Heap.push_back({N->CompleteCycle, N});
    std::push_heap(Heap.begin(), Heap.end(), Later);
  }
  uint64_t earliest() const {
    return Heap.empty() ? UINT64_MAX : Heap.front().first;
  }
  void popDue(uint64_t Now, std::vector<CalNode *> &Out) {
    while (!Heap.empty() && Heap.front().first <= Now) {
      std::pop_heap(Heap.begin(), Heap.end(), Later);
      Out.push_back(Heap.back().second);
      Heap.pop_back();
    }
  }
  void clear() { Heap.clear(); }

private:
  static bool Later(const std::pair<uint64_t, CalNode *> &A,
                    const std::pair<uint64_t, CalNode *> &B) {
    return A.first > B.first;
  }
  std::vector<std::pair<uint64_t, CalNode *>> Heap;
};

/// One context's per-register state: what a spawn's reset restores.
struct RegState {
  static constexpr unsigned N = ir::Reg::NumDenseIndices;
  uint64_t Regs[N];
  uint64_t Ready[N];
  uint8_t SrcLevel[N];
  const void *Prod[N];

  RegState() { fullClear(); }
  /// The reset the written-register set replaced: every index.
  void fullClear() {
    std::memset(Regs, 0, sizeof(Regs));
    std::memset(Ready, 0, sizeof(Ready));
    std::memset(SrcLevel, 0, sizeof(SrcLevel));
    std::fill(std::begin(Prod), std::end(Prod), nullptr);
    Regs[sim::ThreadContext::P0Index] = 1;
  }
  bool operator==(const RegState &O) const {
    return std::memcmp(Regs, O.Regs, sizeof(Regs)) == 0 &&
           std::memcmp(Ready, O.Ready, sizeof(Ready)) == 0 &&
           std::memcmp(SrcLevel, O.SrcLevel, sizeof(SrcLevel)) == 0 &&
           std::equal(std::begin(Prod), std::end(Prod), std::begin(O.Prod));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// CacheLevel
//===----------------------------------------------------------------------===//

// Seeded lookup/insert/contains/reset streams over several geometries:
// power-of-two and non-power-of-two set counts, direct-mapped and the
// 12-way L3, with line address 0 in every pool.
TEST(FlatStructures, CacheLevelMatchesTheWayArray) {
  const cache::CacheParams Geometries[] = {
      {1024, 2, 64, 2},          // 8 sets.
      {3 * 4 * 64, 4, 64, 2},    // 3 sets.
      {5 * 64, 1, 64, 2},        // 5 sets, direct-mapped.
      {3072 * 1024, 12, 64, 30}, // The L3 of Table 1.
  };
  uint64_t Seed = 0;
  for (const cache::CacheParams &P : Geometries) {
    cache::CacheLevel L(P);
    WayCache Ref(P);
    std::mt19937_64 Rng(++Seed);
    const uint64_t Lines =
        uint64_t(P.SizeBytes / P.LineBytes) * 3 / 2; // Pool 1.5x capacity.
    for (int Step = 0; Step < 300000; ++Step) {
      uint64_t Line = Rng() % 8 == 0 ? 0 : Rng() % Lines;
      switch (Rng() % 16) {
      case 0:
        ASSERT_EQ(L.contains(Line), Ref.contains(Line)) << Step;
        break;
      case 1:
        if (Rng() % 1024 == 0) {
          L.reset();
          Ref.reset();
        }
        break;
      default:
        if (Rng() % 2 == 0) {
          ASSERT_EQ(L.lookup(Line), Ref.lookup(Line)) << Step;
        } else {
          L.insert(Line);
          Ref.insert(Line);
        }
      }
    }
    for (uint64_t Line = 0; Line < Lines; ++Line)
      ASSERT_EQ(L.contains(Line), Ref.contains(Line)) << Line;
  }
}

//===----------------------------------------------------------------------===//
// PrefetchedLineTable
//===----------------------------------------------------------------------===//

// Grows the table through every capacity step (1K .. 128K slots) up to the
// simulator's 65,536-entry overflow clear, with assignments and erasures
// (tombstones) mixed in, twice over. forEach is compared as a set: growth
// changes slot order, which its callers do not depend on.
TEST(FlatStructures, PrefetchedLineTableMatchesTheFixedTable) {
  sim::PrefetchedLineTable T;
  FixedLineTable Ref;
  std::mt19937_64 Rng(11);
  using Entry = std::tuple<uint64_t, uint32_t, uint32_t, uint32_t, bool>;
  auto Entries = [](const auto &Table) {
    std::vector<Entry> Out;
    Table.forEach([&](uint64_t L, const sim::PrefetchOrigin &O) {
      Out.emplace_back(L, O.Trigger, O.Slice, O.Depth, O.Wild);
    });
    std::sort(Out.begin(), Out.end());
    return Out;
  };
  size_t NextCheck = 512;
  unsigned Clears = 0;
  for (int Step = 0; Clears < 2; ++Step) {
    // Lines from a pool twice the overflow bound, so assignments to live
    // keys are common; line 0 is an ordinary key.
    uint64_t Line = (Rng() % (1u << 17)) * 3;
    sim::PrefetchOrigin O{static_cast<ir::StaticId>(Rng() % 5 + 1),
                          static_cast<ir::StaticId>(Rng() % 3),
                          static_cast<uint32_t>(Rng() % 4), Rng() % 7 == 0};
    switch (Rng() % 8) {
    case 0:
      T.erase(Line);
      Ref.erase(Line);
      break;
    case 1: {
      sim::PrefetchOrigin *A = T.find(Line), *B = Ref.find(Line);
      ASSERT_EQ(A != nullptr, B != nullptr) << Step;
      if (A) {
        ASSERT_TRUE(sameOrigin(*A, *B)) << Step;
      }
      break;
    }
    default: {
      // The simulator's overflow policy: drain and clear past 2^16.
      if (Ref.size() > (1u << 16)) {
        ASSERT_EQ(Entries(T), Entries(Ref));
        T.clear();
        Ref.clear();
        ++Clears;
        NextCheck = 512;
      }
      sim::PrefetchOrigin PrevA, PrevB;
      bool FreshA = T.insertOrAssign(Line, O, &PrevA);
      bool FreshB = Ref.insertOrAssign(Line, O, &PrevB);
      ASSERT_EQ(FreshA, FreshB) << Step;
      if (!FreshA) {
        ASSERT_TRUE(sameOrigin(PrevA, PrevB)) << Step;
      }
    }
    }
    ASSERT_EQ(T.size(), Ref.size()) << Step;
    if (T.size() >= NextCheck) { // Once per doubling of the live count.
      ASSERT_EQ(Entries(T), Entries(Ref)) << Step;
      NextCheck *= 2;
    }
  }
}

//===----------------------------------------------------------------------===//
// SimMemory
//===----------------------------------------------------------------------===//

// Writes and reads around the directory cap (pages below, at and above
// it), far pages, page 0, wild and unaligned speculative reads, and the
// page count after every write.
TEST(FlatStructures, SimMemoryMatchesTheMapMemory) {
  mem::SimMemory M;
  MapMemory Ref;
  std::mt19937_64 Rng(5);
  const uint64_t Cap = mem::SimMemory::DirectoryPages;
  const uint64_t PageBases[] = {0,       1,       2,          100,
                                Cap - 2, Cap - 1, Cap,        Cap + 1,
                                2 * Cap, 1u << 30, uint64_t(1) << 51};
  auto RandomAddr = [&] {
    uint64_t Page = PageBases[Rng() % std::size(PageBases)] + Rng() % 3;
    return Page * mem::PageSize + (Rng() % (mem::PageSize / 8)) * 8;
  };
  for (int Step = 0; Step < 100000; ++Step) {
    uint64_t Addr = RandomAddr();
    if (Rng() % 4 == 0) {
      uint64_t V = Rng();
      M.write(Addr, V);
      Ref.write(Addr, V);
      ASSERT_EQ(M.numPages(), Ref.numPages()) << Step;
      continue;
    }
    if (Rng() % 8 == 0)
      Addr += 1 + Rng() % 7; // Unaligned: always wild.
    if (Rng() % 16 == 0)
      Addr = Rng(); // Anywhere in the 64-bit space.
    uint64_t Want = 0;
    bool WantMapped = Ref.readMaybe(Addr, Want);
    bool Mapped = !WantMapped;
    ASSERT_EQ(M.readMaybe(Addr, Mapped), WantMapped ? Want : 0) << Step;
    ASSERT_EQ(Mapped, WantMapped) << Step;
    if ((Addr & 7) == 0) {
      ASSERT_EQ(M.isMapped(Addr), WantMapped) << Step;
    }
    if (WantMapped) {
      ASSERT_EQ(M.read(Addr), Want) << Step;
    }
  }
}

//===----------------------------------------------------------------------===//
// TLB
//===----------------------------------------------------------------------===//

// Working sets below, at, one past and far past the 64 entries, each
// touched sequentially (a cyclic sweep, LRU's worst case past capacity),
// at random, and as runs of one repeated page. The pool mixes runs of
// consecutive pages with random pages anywhere in the 64-bit space, page
// 0 included, and the TLB is cleared in mid-stream.
TEST(FlatStructures, TLBMatchesTheMapTLB) {
  const uint64_t WorkingSets[] = {16, 64, 65, 200};
  enum Pattern { Sequential, Random, Repeated };
  uint64_t Seed = 0;
  for (uint64_t Pages : WorkingSets)
    for (Pattern Pat : {Sequential, Random, Repeated}) {
      SCOPED_TRACE(::testing::Message()
                   << Pages << " pages, pattern " << Pat);
      std::mt19937_64 Rng(++Seed);
      std::vector<uint64_t> Pool(Pages);
      for (uint64_t I = 0; I < Pages; ++I) // Page 0, runs and far pages.
        Pool[I] = I == 0 ? 0 : I % 3 == 0 ? Rng() : Pool[I - 1] + 1;
      cache::TLB T;
      MapTLB Ref;
      uint64_t Hits = 0, Next = 0, Run = 0, Page = 0;
      for (int Step = 0; Step < 40000; ++Step) {
        if (Step == 20000 || Rng() % 8192 == 0) {
          T.clear();
          Ref.clear();
        }
        switch (Pat) {
        case Sequential:
          Page = Pool[Next++ % Pages];
          break;
        case Random:
          Page = Pool[Rng() % Pages];
          break;
        case Repeated:
          if (Run == 0) {
            Page = Pool[Rng() % Pages];
            Run = 1 + Rng() % 8;
          }
          --Run;
          break;
        }
        bool Hit = T.touch(Page);
        ASSERT_EQ(Hit, Ref.touch(Page)) << Step;
        Hits += Hit;
      }
      // Every stream both hits and misses, except the sweep past
      // capacity, which LRU makes miss on every touch.
      EXPECT_GT(40000 - Hits, 0u);
      if (Pat != Sequential || Pages <= cache::CacheConfig::TLBEntries) {
        EXPECT_GT(Hits, 0u);
      }
    }
}

//===----------------------------------------------------------------------===//
// Completion calendar
//===----------------------------------------------------------------------===//

// Completions filed at random distances: mostly within a memory latency,
// some exactly at the ring's edge and some far past it (the overflow),
// with time advancing one cycle, to the next due cycle (an idle skip), or
// far past the ring in one jump, and the calendar cleared now and then as
// a spawn's reset does. After every advance the due sets and the earliest
// due cycle must match the heap's. A small ring wraps and overflows often.
template <unsigned LogBuckets> void compareCalendars(uint64_t Seed) {
  using Ring = sim::CompletionCalendar<CalNode, LogBuckets>;
  const uint64_t R = Ring::NumBuckets;
  std::mt19937_64 Rng(Seed);
  std::deque<CalNode> Nodes;
  Ring Cal;
  HeapCalendar Ref;
  std::vector<CalNode *> Got, Want;
  uint64_t Now = 0, Overflowed = 0, Popped = 0;
  for (int Step = 0; Step < 60000; ++Step) {
    switch (Rng() % 16) {
    case 0: // Far past the ring: overflow entries come due directly.
      Now += 1 + Rng() % (3 * R);
      break;
    case 1:
    case 2:
    case 3: // An idle skip to the next event.
      Now = std::max(Now + 1, std::min(Ref.earliest(), Now + 4 * R));
      break;
    default:
      ++Now;
    }
    Got.clear();
    Want.clear();
    for (CalNode *N = Cal.popDue(Now); N; N = N->NextDue)
      Got.push_back(N);
    Ref.popDue(Now, Want);
    std::sort(Got.begin(), Got.end());
    std::sort(Want.begin(), Want.end());
    ASSERT_EQ(Got, Want) << Step;
    Popped += Got.size();
    if (Rng() % 2048 == 0) {
      Cal.clear();
      Ref.clear();
    }
    for (unsigned K = Rng() % 4; K > 0; --K) {
      uint64_t Delta;
      switch (Rng() % 8) {
      case 0:
        Delta = R - 1 + Rng() % 3; // At the ring's edge.
        break;
      case 1:
        Delta = 1 + Rng() % (4 * R); // Often past it.
        break;
      default:
        Delta = 1 + Rng() % 300; // Up to a memory access.
      }
      Overflowed += Delta >= R;
      CalNode &N = Nodes.emplace_back();
      N.CompleteCycle = Now + Delta;
      Cal.push(&N);
      Ref.push(&N);
    }
    ASSERT_EQ(Cal.earliest(), Ref.earliest()) << Step;
  }
  EXPECT_GT(Overflowed, 1000u);
  EXPECT_GT(Popped, 50000u);
}

TEST(FlatStructures, CompletionCalendarMatchesTheHeap) {
  for (uint64_t Seed : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    compareCalendars<9>(Seed); // The simulator's ring.
    compareCalendars<6>(Seed + 100);
  }
}

//===----------------------------------------------------------------------===//
// Written-register reset
//===----------------------------------------------------------------------===//

// Seeded def sequences as fetch sees them, hardwired r0/p0 defs included
// (their Def takes a scoreboard slot while WDst drops the write), written
// the way the pipelines write: the value to WDst, the scoreboard and the
// rename map at Def. Resetting only the written registers must leave the
// same state as clearing every one.
TEST(FlatStructures, WrittenRegisterResetMatchesAFullClear) {
  const unsigned P0 = sim::ThreadContext::P0Index;
  std::mt19937_64 Rng(7);
  RegState Masked, Full;
  sim::WrittenRegs Written;
  unsigned Hardwired = 0;
  for (int Spawn = 0; Spawn < 400; ++Spawn) {
    for (unsigned K = Rng() % 300; K > 0; --K) {
      ir::DecodedInst D;
      switch (Rng() % 10) {
      case 0:
        break; // No def (a store, a branch).
      case 1:
        D.Def = Rng() % 2 ? 0 : static_cast<uint16_t>(P0);
        break; // Hardwired: WDst stays NoReg.
      default:
        D.Def = static_cast<uint16_t>(1 + Rng() % (RegState::N - 1));
        if (D.Def != P0)
          D.WDst = D.Def;
      }
      Hardwired += D.Def != ir::DecodedInst::NoReg &&
                   D.WDst == ir::DecodedInst::NoReg;
      Written.note(D);
      for (RegState *S : {&Masked, &Full}) {
        if (D.WDst != ir::DecodedInst::NoReg)
          S->Regs[D.WDst] = Rng() | 1;
        if (D.Def != ir::DecodedInst::NoReg) {
          S->Ready[D.Def] = 1 + Rng() % 1000;
          S->SrcLevel[D.Def] = static_cast<uint8_t>(1 + Rng() % 4);
          S->Prod[D.Def] = &D;
        }
      }
      if (D.Def != ir::DecodedInst::NoReg) {
        ASSERT_TRUE(Written.contains(D.Def));
      }
    }
    // The simulator's reset (Simulator::Thread::resetForSpawn).
    Written.drain([&](unsigned I) {
      Masked.Regs[I] = 0;
      Masked.Ready[I] = 0;
      Masked.SrcLevel[I] = 0;
      Masked.Prod[I] = nullptr;
    });
    Masked.Regs[P0] = 1;
    Full.fullClear();
    ASSERT_TRUE(Masked == Full) << "spawn " << Spawn;
    for (unsigned I = 0; I < RegState::N; ++I)
      ASSERT_FALSE(Written.contains(I));
  }
  EXPECT_GT(Hardwired, 1000u);
}
