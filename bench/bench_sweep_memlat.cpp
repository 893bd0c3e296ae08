//===- bench/bench_sweep_memlat.cpp - memory latency sensitivity -----------===//
//
// Sensitivity sweep behind the paper's Table 1 remark that the research
// models use *higher* memory latencies than then-current parts "to
// account for future processor generations": SSP's value grows with the
// memory latency it hides. One adapted binary (per benchmark) is run on
// the in-order model with memory latency swept from 100 to 400 cycles.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Sweep: in-order SSP speedup vs. memory latency ===\n");
  printMachineBanner();

  const unsigned Latencies[] = {100, 160, 230, 320, 400};
  constexpr size_t NumLat = sizeof(Latencies) / sizeof(Latencies[0]);

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  for (unsigned L : Latencies)
    T.cell("mem=" + std::to_string(L));

  // Adapt each workload once, in parallel, at the default (230-cycle)
  // machine — the paper's flow fixes the binary and varies the hardware.
  // Then one pool job per (workload, latency) point.
  const std::vector<workloads::Workload> Suite = workloads::paperSuite();
  SuiteRunner Runner;
  support::ThreadPool Pool(Args.Jobs);
  Pool.parallelFor(Suite.size(), [&](size_t I) { Runner.adaptedOf(Suite[I]); });
  std::vector<double> Speedups(Suite.size() * NumLat);
  Pool.parallelFor(Speedups.size(), [&](size_t I) {
    const workloads::Workload &W = Suite[I / NumLat];
    sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
    Cfg.Sample = Args.Sample;
    Cfg.Cache.MemLatency = Latencies[I % NumLat];
    uint64_t Base = Runner.simulateOriginal(W, Cfg).Cycles;
    uint64_t Ssp =
        SuiteRunner::simulate(Runner.adaptedOf(W).Program, W, Cfg).Cycles;
    Speedups[I] = static_cast<double>(Base) / static_cast<double>(Ssp);
  });

  for (size_t WI = 0; WI < Suite.size(); ++WI) {
    T.row();
    T.cell(Suite[WI].Name);
    for (size_t LI = 0; LI < NumLat; ++LI)
      T.cell(Speedups[WI * NumLat + LI], 2);
  }
  T.print();

  std::printf("\nexpected shape: speedups grow (or hold) with memory "
              "latency — thread-based prefetching hides whatever latency "
              "the machine has, so its value scales with it.\n");
  return 0;
}
