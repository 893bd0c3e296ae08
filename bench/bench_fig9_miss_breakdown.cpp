//===- bench/bench_fig9_miss_breakdown.cpp - Figure 9 ----------------------===//
//
// Regenerates Figure 9 of the paper: for every benchmark and for the four
// configurations (in-order, in-order+SSP, OOO, OOO+SSP), the breakdown of
// where the *delinquent loads* are satisfied when they miss L1: L2, L3 or
// memory, with "partial" meaning the line was already in transit to L1
// (typically because a speculative thread's prefetch was in flight). The
// height of each bar in the paper is the L1 miss rate of those loads.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

namespace {

struct Breakdown {
  double MissRate = 0; // Fraction of delinquent accesses missing L1.
  double Pct[3] = {0, 0, 0};        // Served by L2 / L3 / Mem (full).
  double PartialPct[3] = {0, 0, 0}; // Same, lines already in transit.
};

Breakdown breakdownOf(const sim::SimStats &S,
                      const std::unordered_set<ir::StaticId> &Delinquent) {
  uint64_t Accesses = 0, Hits[4] = {0, 0, 0, 0}, Partials[4] = {0, 0, 0, 0};
  for (const auto &[Sid, St] : S.LoadProfile) {
    if (!Delinquent.count(Sid))
      continue;
    Accesses += St.Accesses;
    for (int L = 0; L < 4; ++L) {
      Hits[L] += St.Hits[L];
      Partials[L] += St.Partials[L];
    }
  }
  Breakdown B;
  if (Accesses == 0)
    return B;
  uint64_t Misses = 0;
  for (int L = 1; L < 4; ++L)
    Misses += Hits[L] + Partials[L];
  B.MissRate = static_cast<double>(Misses) / static_cast<double>(Accesses);
  for (int L = 1; L < 4; ++L) {
    B.Pct[L - 1] = 100.0 * static_cast<double>(Hits[L]) /
                   static_cast<double>(Accesses);
    B.PartialPct[L - 1] = 100.0 * static_cast<double>(Partials[L]) /
                          static_cast<double>(Accesses);
  }
  return B;
}

} // namespace

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Figure 9: where delinquent loads are satisfied when "
              "missing L1 (%% of accesses) ===\n");
  printMachineBanner();

  SuiteRunner Runner;
  Runner.setSamplingPlan(Args.Sample);
  support::ThreadPool Pool(Args.Jobs);
  Runner.runAll(workloads::fullSuite(), Pool);
  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("config"));
  T.cell(std::string("missrate%"));
  T.cell(std::string("L2"));
  T.cell(std::string("L2part"));
  T.cell(std::string("L3"));
  T.cell(std::string("L3part"));
  T.cell(std::string("Mem"));
  T.cell(std::string("MemPart"));

  for (const workloads::Workload &W : workloads::fullSuite()) {
    const BenchResult &R = Runner.run(W);
    std::unordered_set<ir::StaticId> Delinquent = Runner.delinquentIdsOf(W);
    struct Row {
      const char *Config;
      const sim::SimStats *Stats;
    } Rows[4] = {{"io", &R.BaseIO},
                 {"io+ssp", &R.SspIO},
                 {"ooo", &R.BaseOOO},
                 {"ooo+ssp", &R.SspOOO}};
    for (const Row &Cfg : Rows) {
      Breakdown B = breakdownOf(*Cfg.Stats, Delinquent);
      T.row();
      T.cell(W.Name);
      T.cell(std::string(Cfg.Config));
      T.cell(100.0 * B.MissRate, 1);
      T.cell(B.Pct[0], 1);
      T.cell(B.PartialPct[0], 1);
      T.cell(B.Pct[1], 1);
      T.cell(B.PartialPct[1], 1);
      T.cell(B.Pct[2], 1);
      T.cell(B.PartialPct[2], 1);
    }
  }
  T.print();

  std::printf("\npaper: on the in-order model SSP removes most misses at "
              "the lower levels (memory/L3 shares shrink or turn into "
              "partial hits) thanks to long-range chaining prefetches; OOO "
              "relies less on thread-based prefetching, so SSP shifts "
              "fewer accesses there.\n");
  return 0;
}
