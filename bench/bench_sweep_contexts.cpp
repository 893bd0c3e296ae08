//===- bench/bench_sweep_contexts.cpp - hardware context sweep -------------===//
//
// Sweeps the number of SMT hardware thread contexts (the paper's Table 1
// fixes four) and compares the RoundRobin and ICOUNT fetch policies. With
// two contexts only one chaining thread can live at a time; beyond four,
// extra contexts let more chain links overlap misses until the two memory
// ports and the 16-entry fill buffer saturate.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Sweep: in-order SSP speedup vs. hardware contexts and "
              "fetch policy ===\n");
  printMachineBanner();

  const unsigned Contexts[] = {2, 4, 8};

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  for (unsigned C : Contexts)
    T.cell("rr/" + std::to_string(C));
  T.cell(std::string("icount/4"));

  // Adapt every workload in parallel, then one pool job per (workload,
  // machine-config) point — three round-robin context counts plus ICOUNT
  // at four contexts.
  const std::vector<workloads::Workload> Suite = workloads::paperSuite();
  constexpr size_t NumCfgs = 4;
  SuiteRunner Runner;
  support::ThreadPool Pool(Args.Jobs);
  Pool.parallelFor(Suite.size(), [&](size_t I) { Runner.adaptedOf(Suite[I]); });
  std::vector<double> Speedups(Suite.size() * NumCfgs);
  Pool.parallelFor(Speedups.size(), [&](size_t I) {
    const workloads::Workload &W = Suite[I / NumCfgs];
    size_t CI = I % NumCfgs;
    sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
    Cfg.Sample = Args.Sample;
    Cfg.NumThreads = CI < 3 ? Contexts[CI] : 4;
    Cfg.Fetch =
        CI < 3 ? sim::FetchPolicy::RoundRobin : sim::FetchPolicy::ICount;
    uint64_t Base = Runner.simulateOriginal(W, Cfg).Cycles;
    uint64_t Ssp =
        SuiteRunner::simulate(Runner.adaptedOf(W).Program, W, Cfg).Cycles;
    Speedups[I] = static_cast<double>(Base) / static_cast<double>(Ssp);
  });

  for (size_t WI = 0; WI < Suite.size(); ++WI) {
    T.row();
    T.cell(Suite[WI].Name);
    for (size_t CI = 0; CI < NumCfgs; ++CI)
      T.cell(Speedups[WI * NumCfgs + CI], 2);
  }
  T.print();

  std::printf("\nexpected shape: speedups grow from 2 to 4 contexts (more "
              "overlapped chain links) with diminishing returns at 8; "
              "ICOUNT is comparable to round-robin here because chaining "
              "threads mostly stall on memory, not fetch.\n");
  return 0;
}
