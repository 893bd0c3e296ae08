//===- core/ServeCache.h - Content-addressed adaptation result store ------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's memo of finished adaptations: a content-addressed store
/// keyed by the full request content — program text, profile text, and
/// canonical option text — holding the rendered report and the adapted
/// binary text. The 64-bit key hash (support/Hash.h) only narrows the
/// search to a bucket; every probe compares the complete key bytes, so a
/// hash collision degrades to a scan, never to a wrong response.
///
/// Each key is hashed once per request: the caller computes hashOf(K)
/// and passes it to lookup() and, on a miss, to insert(). Keys and
/// results move in, and a hit shares the stored result rather than
/// copying it, so a hit's result stays valid even after a later insert
/// evicts its entry.
///
/// Eviction is LRU over a byte budget covering keys and payloads: on
/// insert, least-recently-used entries are dropped until the store fits.
/// An entry larger than the whole budget is dropped immediately (the
/// store never lies about what it holds). All operations are serialized
/// by the service's batch structure — lookups and inserts happen on the
/// coordinating thread — so the store itself carries no lock; this keeps
/// hit/miss accounting and eviction order deterministic for any --jobs.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CORE_SERVECACHE_H
#define SSP_CORE_SERVECACHE_H

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace ssp::core {

/// The full content key of one adaptation request.
struct ServeKey {
  std::string Program;  ///< Program text (.ssp, including data sections).
  std::string Profile;  ///< Profile text (.sspprof).
  std::string Options;  ///< Canonical option rendering (fixed key order).

  friend bool operator==(const ServeKey &A, const ServeKey &B) {
    return A.Program == B.Program && A.Profile == B.Profile &&
           A.Options == B.Options;
  }
  size_t bytes() const {
    return Program.size() + Profile.size() + Options.size();
  }
};

/// The served payload of one adaptation.
struct ServeResult {
  std::string Report;  ///< renderReportText output.
  std::string Binary;  ///< Adapted Program::str() text.
  size_t bytes() const { return Report.size() + Binary.size(); }
};

class ServeCache {
public:
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    /// Probes that hashed into an occupied bucket but failed the full-key
    /// compare — the path a deliberate collision fixture exercises.
    uint64_t Collisions = 0;
  };

  explicit ServeCache(uint64_t ByteBudget) : ByteBudget(ByteBudget) {}

  ServeCache(const ServeCache &) = delete;
  ServeCache &operator=(const ServeCache &) = delete;

  /// The bucket hash of \p K, to pass to lookup() and insert().
  uint64_t hashOf(const ServeKey &K) const;

  /// Looks \p K up under its hash \p H; a hit refreshes its LRU position
  /// and shares the stored result. Null on miss.
  std::shared_ptr<const ServeResult> lookup(const ServeKey &K, uint64_t H);

  /// Inserts \p K -> \p R under \p K's hash \p H (no-op if the key is
  /// already present) and evicts LRU entries until the byte budget holds.
  void insert(ServeKey K, uint64_t H, std::shared_ptr<const ServeResult> R);

  const Stats &stats() const { return St; }
  size_t size() const { return Entries.size(); }
  uint64_t usedBytes() const { return UsedBytes; }

  /// Test seam: replaces the key-hash function (e.g. with a constant, to
  /// force every key into one bucket and pin the full-key compare path).
  void setHashFunction(std::function<uint64_t(const ServeKey &)> Fn) {
    HashFn = std::move(Fn);
  }

private:
  struct Entry {
    ServeKey Key;
    std::shared_ptr<const ServeResult> Result;
    uint64_t Hash = 0;
  };
  using EntryList = std::list<Entry>;

  void evictToBudget();
  void erase(EntryList::iterator It);

  uint64_t ByteBudget;
  uint64_t UsedBytes = 0;
  EntryList Entries; ///< Front = most recently used.
  std::unordered_map<uint64_t, std::vector<EntryList::iterator>> Buckets;
  std::function<uint64_t(const ServeKey &)> HashFn;
  Stats St;
};

} // namespace ssp::core

#endif // SSP_CORE_SERVECACHE_H
