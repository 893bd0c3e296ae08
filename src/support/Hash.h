//===- support/Hash.h - Stable 64-bit content hashing ---------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable 64-bit content hash for the adaptation service's
/// content-addressed cache: request payloads (program text, profile text,
/// canonical option text) are keyed by their hash, with the full bytes
/// compared on every hit — the hash narrows the search, it is never
/// trusted alone.
///
/// The function is XXH64 (xxHash's 64-bit variant): four independent
/// 64-bit lanes consume 32 bytes per step through 8-byte loads, so a
/// payload costs a fraction of a nanosecond per byte instead of the
/// multiply per byte of a byte-serial hash. Words are read little-endian
/// on every host (byte-swapped on big-endian ones).
///
/// Stability rule: a value depends only on the bytes and the seed — not
/// on the platform, the standard library or the process (std::hash may
/// be seeded per process) — and equals the reference XXH64 of the same
/// bytes and seed. `tests/support_test.cpp` pins golden values; changing
/// the function changes every value a client or a stored record may hold.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SUPPORT_HASH_H
#define SSP_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace ssp::support {

/// The default seed.
inline constexpr uint64_t HashSeed = 0;

/// XXH64 of \p Len bytes at \p Data under seed \p H. Chaining — passing
/// one call's result as the next call's seed — hashes a sequence of
/// pieces.
uint64_t hashBytes(const void *Data, size_t Len, uint64_t H = HashSeed);

/// Content hash of a string's bytes.
inline uint64_t hashString(const std::string &S, uint64_t H = HashSeed) {
  return hashBytes(S.data(), S.size(), H);
}

/// Chains \p Value into \p H: hashBytes of its 8 little-endian bytes,
/// seeded with \p H (the same value on every host).
uint64_t hashValue(uint64_t Value, uint64_t H);

} // namespace ssp::support

#endif // SSP_SUPPORT_HASH_H
