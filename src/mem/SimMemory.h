//===- mem/SimMemory.h - Sparse simulated address space -------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SimMemory is the 64-bit data address space of the simulated machine,
/// stored sparsely in 4 KiB pages. All accesses are 8-byte words (the IR's
/// ld8/st8). Pages below DirectoryPages are found by indexing a dense
/// directory, one pointer per page number up to the highest page written;
/// pages above it live in a hash map. The suite's images lie entirely below
/// the cap, so their loads and stores never hash.
/// Speculative threads may compute wild addresses; readMaybe lets
/// the simulator service those without faulting, matching the paper's
/// statement that p-slice computation need not satisfy correctness
/// constraints.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_MEM_SIMMEMORY_H
#define SSP_MEM_SIMMEMORY_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace ssp::mem {

/// Simulated page size in bytes. Also the TLB page size.
inline constexpr uint64_t PageSize = 4096;

/// Address every checksummed program stores its result to before halting.
inline constexpr uint64_t ResultAddr = 0x8000;

/// A sparse, paged 64-bit byte-addressed memory holding 8-byte words.
class SimMemory {
public:
  /// Reads the 64-bit word at \p Addr. The address must be 8-byte aligned
  /// and the page must be mapped (written before): main-thread semantics.
  uint64_t read(uint64_t Addr) const {
    assert((Addr & 7) == 0 && "unaligned access");
    const Page *P = findPage(Addr);
    assert(P && "main-thread read from unmapped memory");
    return P->Words[wordIndex(Addr)];
  }

  /// Reads the word at \p Addr, returning 0 for unmapped or unaligned
  /// addresses: speculative-thread semantics (wild loads never fault).
  /// Sets \p WasMapped so callers can count wrong-address prefetches.
  uint64_t readMaybe(uint64_t Addr, bool &WasMapped) const {
    if ((Addr & 7) != 0) {
      WasMapped = false;
      return 0;
    }
    const Page *P = findPage(Addr);
    WasMapped = P != nullptr;
    return P ? P->Words[wordIndex(Addr)] : 0;
  }

  /// Returns true if the page containing \p Addr has been written.
  bool isMapped(uint64_t Addr) const { return findPage(Addr) != nullptr; }

  /// Writes the 64-bit word at \p Addr, mapping the page on demand.
  void write(uint64_t Addr, uint64_t Value) {
    assert((Addr & 7) == 0 && "unaligned access");
    Page &P = getOrCreatePage(Addr);
    P.Words[wordIndex(Addr)] = Value;
  }

  /// Number of mapped pages (test/diagnostic aid).
  size_t numPages() const { return NumDirPages + FarPages.size(); }

  /// Pages with a page number below this are found through the dense
  /// directory (2^16 pages: 256 MiB of address space, a directory of at
  /// most 512 KiB); the rest through the map.
  static constexpr uint64_t DirectoryPages = uint64_t(1) << 16;

private:
  struct Page {
    uint64_t Words[PageSize / 8] = {};
  };

  static uint64_t pageNumber(uint64_t Addr) { return Addr / PageSize; }
  static size_t wordIndex(uint64_t Addr) {
    return static_cast<size_t>((Addr % PageSize) / 8);
  }

  const Page *findPage(uint64_t Addr) const {
    uint64_t PN = pageNumber(Addr);
    if (PN < Directory.size())
      return Directory[PN].get();
    if (PN < DirectoryPages || FarPages.empty())
      return nullptr;
    auto It = FarPages.find(PN);
    return It == FarPages.end() ? nullptr : It->second.get();
  }

  Page &getOrCreatePage(uint64_t Addr) {
    uint64_t PN = pageNumber(Addr);
    if (PN >= DirectoryPages) {
      std::unique_ptr<Page> &Slot = FarPages[PN];
      if (!Slot)
        Slot = std::make_unique<Page>();
      return *Slot;
    }
    if (PN >= Directory.size())
      Directory.resize(PN + 1);
    std::unique_ptr<Page> &Slot = Directory[PN];
    if (!Slot) {
      Slot = std::make_unique<Page>();
      ++NumDirPages;
    }
    return *Slot;
  }

  /// Page number -> page for pages below DirectoryPages; sized to the
  /// highest such page written.
  std::vector<std::unique_ptr<Page>> Directory;
  size_t NumDirPages = 0;
  std::unordered_map<uint64_t, std::unique_ptr<Page>> FarPages;
};

/// A bump allocator over SimMemory used by the workload generators to lay
/// out heap data structures. Returns 8-byte-aligned simulated addresses and
/// zero-fills each allocation so that the pages are mapped.
class BumpAllocator {
public:
  /// \p Base is the first simulated address to hand out; keep it away from
  /// 0 so that null-pointer sentinels stay distinguishable.
  BumpAllocator(SimMemory &Mem, uint64_t Base = 0x10000)
      : Mem(Mem), Next(Base) {
    assert((Base & 7) == 0 && "allocator base must be aligned");
  }

  /// Allocates \p Bytes (rounded up to 8) and returns the base address.
  uint64_t alloc(uint64_t Bytes) {
    uint64_t Size = (Bytes + 7) & ~uint64_t(7);
    uint64_t Addr = Next;
    Next += Size;
    for (uint64_t Off = 0; Off < Size; Off += 8)
      Mem.write(Addr + Off, 0);
    return Addr;
  }

  /// Skips ahead to at least \p Addr (for placing structures at fixed spots
  /// or inserting padding that defeats accidental cache-friendly layouts).
  void alignTo(uint64_t Alignment) {
    assert(Alignment != 0 && (Alignment & (Alignment - 1)) == 0 &&
           "alignment must be a power of two");
    Next = (Next + Alignment - 1) & ~(Alignment - 1);
  }

  uint64_t bytesAllocated(uint64_t Base = 0x10000) const {
    return Next - Base;
  }

private:
  SimMemory &Mem;
  uint64_t Next;
};

} // namespace ssp::mem

#endif // SSP_MEM_SIMMEMORY_H
