//===- support/Hash.cpp - Stable 64-bit content hashing -------------------===//

#include "support/Hash.h"

#include <bit>
#include <cstring>

using namespace ssp;
using namespace ssp::support;

namespace {

constexpr uint64_t P1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t P2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t P3 = 0x165667B19E3779F9ULL;
constexpr uint64_t P4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t P5 = 0x27D4EB2F165667C5ULL;

/// One unaligned little-endian word: a single load on little-endian
/// hosts (memcpy of a constant 8 bytes compiles to a plain mov).
uint64_t read64(const unsigned char *P) {
  uint64_t V = 0;
  std::memcpy(&V, P, sizeof(V));
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap64(V);
  return V;
}

uint64_t read32(const unsigned char *P) {
  uint32_t V = 0;
  std::memcpy(&V, P, sizeof(V));
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap32(V);
  return V;
}

uint64_t mixLane(uint64_t Acc, uint64_t Input) {
  Acc += Input * P2;
  return std::rotl(Acc, 31) * P1;
}

uint64_t mergeRound(uint64_t Acc, uint64_t Lane) {
  Acc ^= mixLane(0, Lane);
  return Acc * P1 + P4;
}

} // namespace

uint64_t ssp::support::hashBytes(const void *Data, size_t Len, uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  const unsigned char *End = P + Len;
  uint64_t Acc;
  if (Len >= 32) {
    // Four independent lanes: their multiplies overlap in the pipeline.
    uint64_t V1 = H + P1 + P2, V2 = H + P2, V3 = H, V4 = H - P1;
    for (const unsigned char *Limit = End - 32; P <= Limit; P += 32) {
      V1 = mixLane(V1, read64(P));
      V2 = mixLane(V2, read64(P + 8));
      V3 = mixLane(V3, read64(P + 16));
      V4 = mixLane(V4, read64(P + 24));
    }
    Acc = std::rotl(V1, 1) + std::rotl(V2, 7) + std::rotl(V3, 12) +
          std::rotl(V4, 18);
    Acc = mergeRound(Acc, V1);
    Acc = mergeRound(Acc, V2);
    Acc = mergeRound(Acc, V3);
    Acc = mergeRound(Acc, V4);
  } else {
    Acc = H + P5;
  }
  Acc += Len;
  for (; End - P >= 8; P += 8)
    Acc = std::rotl(Acc ^ mixLane(0, read64(P)), 27) * P1 + P4;
  if (End - P >= 4) {
    Acc = std::rotl(Acc ^ (read32(P) * P1), 23) * P2 + P3;
    P += 4;
  }
  for (; P < End; ++P)
    Acc = std::rotl(Acc ^ (*P * P5), 11) * P1;
  // Avalanche.
  Acc ^= Acc >> 33;
  Acc *= P2;
  Acc ^= Acc >> 29;
  Acc *= P3;
  Acc ^= Acc >> 32;
  return Acc;
}

uint64_t ssp::support::hashValue(uint64_t Value, uint64_t H) {
  unsigned char Bytes[8];
  for (int I = 0; I < 8; ++I)
    Bytes[I] = static_cast<unsigned char>(Value >> (8 * I));
  return hashBytes(Bytes, sizeof(Bytes), H);
}
