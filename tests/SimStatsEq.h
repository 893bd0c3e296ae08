//===- tests/SimStatsEq.h - One SimStats comparison for every test --------===//
//
// Every SimStats field, flattened into an ordered list of named records,
// and the one equality check the differential tests share. A record is a
// field (or a fixed-size group of fields, like the per-level cache hits)
// with its values. Attribution contributes one record per trigger, in its
// deterministic first-spawn order; LoadProfile is summarized (below).
//
// The same records render the rows of tests/golden/simstats.txt and parse
// them back, so the golden table and the mode-vs-mode comparisons cover
// exactly the same fields.
//
//===----------------------------------------------------------------------===//

#ifndef SSP_TESTS_SIMSTATSEQ_H
#define SSP_TESTS_SIMSTATSEQ_H

#include "sim/SimStats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace ssp::sim {

/// Field groups a comparison may leave out. Everything else is always
/// compared.
enum StatsFieldGroup : unsigned {
  /// SkippedCycles, SkipEvents: how the simulator ran, which differs
  /// between skip and --no-skip modes by design.
  SkipDiagnostics = 1u << 0,
  /// Sampled and the Sample* counters: differ between a sampled run and
  /// the exact run it reproduces.
  SampleDiagnostics = 1u << 1,
};

/// One named record: a scalar field, a fixed-size array, a LoadProfile
/// summary or one Attribution entry.
struct StatsField {
  std::string Name;
  std::vector<uint64_t> Values;
  unsigned Group = 0; ///< 0 or one StatsFieldGroup.
};

inline std::string sidName(const char *Prefix, uint64_t Sid) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%s.%llx", Prefix,
                static_cast<unsigned long long>(Sid));
  return Buf;
}

/// Every field of \p S, in a fixed order.
inline std::vector<StatsField> statsFields(const SimStats &S) {
  std::vector<StatsField> F;
  auto Add = [&F](const char *Name, std::vector<uint64_t> V,
                  unsigned Group = 0) {
    F.push_back({Name, std::move(V), Group});
  };
  Add("Cycles", {S.Cycles});
  Add("MainInsts", {S.MainInsts});
  Add("SpecInsts", {S.SpecInsts});
  Add("CatCycles", {S.CatCycles, S.CatCycles + NumCycleCats});
  Add("TriggersFired", {S.TriggersFired});
  Add("TriggersIgnored", {S.TriggersIgnored});
  Add("SpawnsSucceeded", {S.SpawnsSucceeded});
  Add("SpawnsDropped", {S.SpawnsDropped});
  Add("SpecWildLoads", {S.SpecWildLoads});
  Add("SpecPrefetches", {S.SpecPrefetches});
  Add("UsefulPrefetches", {S.UsefulPrefetches});
  Add("ThrottleEvents", {S.ThrottleEvents});
  Add("StreamActivations", {S.StreamActivations});
  Add("StreamSteps", {S.StreamSteps});
  Add("Branches", {S.Branches});
  Add("BranchMispredicts", {S.BranchMispredicts});
  Add("SkippedCycles", {S.SkippedCycles}, SkipDiagnostics);
  Add("SkipEvents", {S.SkipEvents}, SkipDiagnostics);
  Add("Sampled", {S.Sampled ? 1u : 0u}, SampleDiagnostics);
  Add("SampleIntervals", {S.SampleIntervals}, SampleDiagnostics);
  Add("SampleDetailInsts", {S.SampleDetailInsts}, SampleDiagnostics);
  Add("SampleFunctionalInsts", {S.SampleFunctionalInsts},
      SampleDiagnostics);
  Add("SampleRampInsts", {S.SampleRampInsts}, SampleDiagnostics);

  const cache::CacheHierarchy::Totals &T = S.CacheTotals;
  Add("CacheTotals.Accesses", {T.Accesses});
  Add("CacheTotals.Hits", {T.Hits, T.Hits + 4});
  Add("CacheTotals.Partials", {T.Partials, T.Partials + 4});
  Add("CacheTotals.FillBufferStallCycles", {T.FillBufferStallCycles});
  Add("CacheTotals.TLBMisses", {T.TLBMisses});

  // LoadProfile can hold tens of thousands of loads (the stress shapes),
  // so it is pinned as its entry count, per-field sums and an FNV-1a
  // digest of every entry (StaticId, Accesses, MissCycles, Hits[4],
  // Partials[4]) in insertion order.
  std::vector<uint64_t> Sum(10, 0);
  uint64_t Digest = 0xcbf29ce484222325ULL;
  for (const auto &[Sid, L] : S.LoadProfile) {
    uint64_t V[11] = {Sid, L.Accesses, L.MissCycles};
    std::copy(L.Hits, L.Hits + 4, V + 3);
    std::copy(L.Partials, L.Partials + 4, V + 7);
    for (unsigned I = 0; I < 11; ++I) {
      if (I > 0)
        Sum[I - 1] += V[I];
      for (unsigned B = 0; B < 8; ++B)
        Digest = (Digest ^ ((V[I] >> (8 * B)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  Add("LoadProfile.Entries", {S.LoadProfile.size()});
  Add("LoadProfile.Sums", std::move(Sum));
  Add("LoadProfile.Digest", {Digest});
  // Per trigger: Slice, Spawns, MaxChainDepth, LateCycles, Fates[5].
  for (const PrefetchAttribution &A : S.Attribution) {
    std::vector<uint64_t> V = {A.Slice, A.Spawns, A.MaxChainDepth,
                               A.LateCycles};
    V.insert(V.end(), A.Fates, A.Fates + NumPrefetchFates);
    F.push_back({sidName("Attribution", A.Trigger), std::move(V), 0});
  }
  return F;
}

/// Renders \p F as space-separated `Name=v1,v2,...` tokens.
inline std::string renderFields(const std::vector<StatsField> &F) {
  std::ostringstream OS;
  for (size_t I = 0; I < F.size(); ++I) {
    OS << (I ? " " : "") << F[I].Name << '=';
    for (size_t J = 0; J < F[I].Values.size(); ++J)
      OS << (J ? "," : "") << F[I].Values[J];
  }
  return OS.str();
}

/// Parses renderFields' output back (group tags are not rendered).
inline std::vector<StatsField> parseFields(const std::string &Text) {
  std::vector<StatsField> F;
  std::istringstream IS(Text);
  std::string Tok;
  while (IS >> Tok) {
    StatsField R;
    size_t Eq = Tok.find('=');
    R.Name = Tok.substr(0, Eq);
    std::istringstream VS(Eq == std::string::npos ? "" : Tok.substr(Eq + 1));
    std::string V;
    while (std::getline(VS, V, ','))
      R.Values.push_back(std::stoull(V));
    F.push_back(std::move(R));
  }
  return F;
}

/// Record-by-record comparison; a name mismatch (a missing or extra
/// Attribution entry) stops at the first misaligned record.
inline void expectFieldsEqual(const std::vector<StatsField> &A,
                              const std::vector<StatsField> &B) {
  EXPECT_EQ(A.size(), B.size()) << "record count";
  for (size_t I = 0; I < A.size() && I < B.size(); ++I) {
    if (A[I].Name != B[I].Name) {
      ADD_FAILURE() << "record " << I << ": " << A[I].Name << " vs "
                    << B[I].Name;
      return;
    }
    EXPECT_EQ(A[I].Values, B[I].Values) << A[I].Name;
  }
}

/// Every field of \p A equals \p B's, except the groups in \p Exclude
/// (a mask of StatsFieldGroup).
inline void expectStatsEqual(const SimStats &A, const SimStats &B,
                             const std::string &What, unsigned Exclude = 0) {
  SCOPED_TRACE(What);
  auto Keep = [Exclude](const SimStats &S) {
    std::vector<StatsField> F = statsFields(S);
    std::erase_if(F, [Exclude](const StatsField &R) {
      return (R.Group & Exclude) != 0;
    });
    return F;
  };
  expectFieldsEqual(Keep(A), Keep(B));
}

} // namespace ssp::sim

#endif // SSP_TESTS_SIMSTATSEQ_H
