//===- core/ServeCache.cpp - Content-addressed adaptation result store ----===//

#include "core/ServeCache.h"

#include "support/Hash.h"

#include <algorithm>

using namespace ssp;
using namespace ssp::core;

uint64_t ServeCache::hashOf(const ServeKey &K) const {
  if (HashFn)
    return HashFn(K);
  // Chain the three sections; each hash folds its section's length in,
  // so ("ab", "c") and ("a", "bc") key differently even at the hash
  // level.
  uint64_t H = support::hashString(K.Program);
  H = support::hashString(K.Profile, H);
  return support::hashString(K.Options, H);
}

std::shared_ptr<const ServeResult> ServeCache::lookup(const ServeKey &K,
                                                     uint64_t H) {
  auto BucketIt = Buckets.find(H);
  if (BucketIt != Buckets.end()) {
    for (EntryList::iterator It : BucketIt->second) {
      if (It->Key == K) {
        ++St.Hits;
        Entries.splice(Entries.begin(), Entries, It); // Refresh LRU.
        return It->Result;
      }
      ++St.Collisions; // Same hash, different bytes: keep scanning.
    }
  }
  ++St.Misses;
  return nullptr;
}

void ServeCache::insert(ServeKey K, uint64_t H,
                        std::shared_ptr<const ServeResult> R) {
  std::vector<EntryList::iterator> &Bucket = Buckets[H];
  for (EntryList::iterator It : Bucket)
    if (It->Key == K)
      return; // Already cached (two identical requests in one batch).
  UsedBytes += K.bytes() + R->bytes();
  Entries.push_front(Entry{std::move(K), std::move(R), H});
  Bucket.push_back(Entries.begin());
  evictToBudget();
}

void ServeCache::evictToBudget() {
  while (UsedBytes > ByteBudget && !Entries.empty()) {
    erase(std::prev(Entries.end()));
    ++St.Evictions;
  }
}

void ServeCache::erase(EntryList::iterator It) {
  auto BucketIt = Buckets.find(It->Hash);
  std::vector<EntryList::iterator> &Bucket = BucketIt->second;
  Bucket.erase(std::find(Bucket.begin(), Bucket.end(), It));
  if (Bucket.empty())
    Buckets.erase(BucketIt);
  UsedBytes -= It->Key.bytes() + It->Result->bytes();
  Entries.erase(It);
}
