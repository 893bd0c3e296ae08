//===- scripts/sim_ab/main.cpp - In-process simulator A/B harness ---------===//
//
// Runs every (program, operation) of perfbench's `pipeline` set on two
// revisions linked into this one binary, alternating which side goes
// first, and prints per operation kind the minimum over --reps runs of
// each side with their ratio work/base, and the paired ratio: each
// operation's median over repetitions of work/base within one
// back-to-back pair, weighted by the operation's base time. Host drift
// moves both sides of a pair alike, so steps of a few percent are
// readable here that separate processes would hide; the paired ratio also
// shrugs off a slow spell that spoils one side's minimum. Exits 1 when a
// run stores a wrong checksum, or its counter digest or checksum differs
// between the sides or between repetitions. Built and run by sim_ab.sh.
//
//===----------------------------------------------------------------------===//

#include "SimAb.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace sspBase {
/// The base revision's side: Side.cpp built with `ssp` renamed.
std::unique_ptr<simab::Side> makeSimAbSide();
} // namespace sspBase

namespace {

const char *const KindName[simab::NumKinds] = {
    "base in-order", "SSP in-order", "base OOO", "SSP OOO",
    "memory image",  "profile"};

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: sim_ab [--reps N]   (N in 1..100)\n");
  std::exit(2);
}

struct Best {
  double Ms = 1e300;
  uint64_t Digest = 0, Checksum = 0;
  bool Seen = false;
};

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 3;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--reps") != 0 || I + 1 == Argc)
      usage();
    char *End = nullptr;
    long N = std::strtol(Argv[++I], &End, 10);
    if (*End != '\0' || N < 1 || N > 100)
      usage();
    Reps = static_cast<unsigned>(N);
  }

  std::unique_ptr<simab::Side> Sides[2] = {sspBase::makeSimAbSide(),
                                           ssp::makeSimAbSide()};
  const size_t NumPrograms = Sides[0]->numPrograms();
  if (Sides[1]->numPrograms() != NumPrograms) {
    std::fprintf(stderr, "sim_ab: the revisions build different suites\n");
    return 1;
  }

  // Best[side][program][kind], minimum over repetitions, and each
  // (program, kind)'s work/base ratio per repetition.
  std::vector<Best> Table(2 * NumPrograms * simab::NumKinds);
  auto At = [&](unsigned S, size_t P, unsigned K) -> Best & {
    return Table[(S * NumPrograms + P) * simab::NumKinds + K];
  };
  std::vector<std::vector<double>> Pairs(NumPrograms * simab::NumKinds);
  unsigned Mismatches = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (size_t P = 0; P < NumPrograms; ++P)
      for (unsigned K = 0; K < simab::NumKinds; ++K) {
        unsigned First = (Rep + P + K) % 2;
        double Ms[2];
        for (unsigned S : {First, 1 - First}) {
          simab::Result R = Sides[S]->run(P, static_cast<simab::Kind>(K));
          Ms[S] = R.Ms;
          if (!R.ChecksumOk) {
            std::fprintf(stderr, "sim_ab: %s %s: %s side stored a wrong "
                         "checksum\n", Sides[S]->name(P).c_str(),
                         KindName[K], S ? "work" : "base");
            ++Mismatches;
          }
          Best &B = At(S, P, K);
          if (B.Seen && (R.Digest != B.Digest || R.Checksum != B.Checksum)) {
            std::fprintf(stderr, "sim_ab: %s %s: %s side differs between "
                         "repetitions\n", Sides[S]->name(P).c_str(),
                         KindName[K], S ? "work" : "base");
            ++Mismatches;
          }
          B.Seen = true;
          B.Digest = R.Digest;
          B.Checksum = R.Checksum;
          B.Ms = std::min(B.Ms, R.Ms);
        }
        Pairs[P * simab::NumKinds + K].push_back(Ms[1] / Ms[0]);
        const Best &A = At(0, P, K), &W = At(1, P, K);
        if (Rep == 0 && (A.Digest != W.Digest || A.Checksum != W.Checksum)) {
          std::fprintf(stderr, "sim_ab: %s %s: digest %016" PRIx64
                       "/%016" PRIx64 ", checksum %" PRIu64 "/%" PRIu64
                       " (base/work)\n",
                       Sides[0]->name(P).c_str(), KindName[K], A.Digest,
                       W.Digest, A.Checksum, W.Checksum);
          ++Mismatches;
        }
      }

  // One row over the kinds in [KBegin, KEnd), each kind's times scaled by
  // its count in the row (a pipeline op builds four images).
  auto Row = [&](const char *Name, unsigned KBegin, unsigned KEnd) {
    double Base = 0, Work = 0, Paired = 0;
    for (unsigned K = KBegin; K < KEnd; ++K)
      for (size_t P = 0; P < NumPrograms; ++P) {
        double N = K == simab::Image && KEnd - KBegin > 1 ? 4 : 1;
        std::vector<double> &R = Pairs[P * simab::NumKinds + K];
        std::nth_element(R.begin(), R.begin() + R.size() / 2, R.end());
        Base += N * At(0, P, K).Ms;
        Work += N * At(1, P, K).Ms;
        Paired += N * At(0, P, K).Ms * R[R.size() / 2];
      }
    std::printf("%-34s %10.1f %10.1f %7.3fx %7.3fx\n", Name, Base, Work,
                Work / Base, Paired / Base);
  };
  std::printf("min of %u rep(s) over %zu programs, ms\n", Reps, NumPrograms);
  std::printf("%-34s %10s %10s %8s %8s\n", "kind", "base", "work", "ratio",
              "paired");
  for (unsigned K = 0; K < simab::NumKinds; ++K)
    Row(KindName[K], K, K + 1);
  char Label[64];
  std::snprintf(Label, sizeof(Label), "all %zu simulations",
                4 * NumPrograms);
  Row(Label, simab::BaseIO, simab::Image);
  Row("pipeline op (4 sims+4 images+prof)", simab::BaseIO, simab::NumKinds);
  if (Mismatches) {
    std::printf("FAILED: %u check(s) failed\n", Mismatches);
    return 1;
  }
  std::printf("identical: every SimStats digest and checksum matches\n");
  return 0;
}
