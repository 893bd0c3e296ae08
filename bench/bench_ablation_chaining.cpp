//===- bench/bench_ablation_chaining.cpp - chaining vs basic SP ------------===//
//
// Ablates the paper's central claim (Sections 1 and 3.2): "long-range
// prefetching using chaining triggers is the key to high performance via
// speculative precomputation". The tool is run once as configured (free to
// choose chaining) and once with chaining disabled (every slice becomes
// basic SP, spawned from the main thread each iteration).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Ablation: chaining SP vs basic-only SP (in-order "
              "speedups) ===\n");
  printMachineBanner();

  SuiteRunner Full;
  core::ToolOptions NoChain;
  NoChain.EnableChaining = false;
  SuiteRunner BasicOnly(NoChain);

  // Warm both runners across the suite on the pool; the report loop
  // below then reads cached results, so the output is identical for any
  // --jobs value.
  const std::vector<workloads::Workload> Suite = workloads::fullSuite();
  support::ThreadPool Pool(Args.Jobs);
  for (SuiteRunner *R : {&Full, &BasicOnly}) {
    R->setSamplingPlan(Args.Sample);
    R->runAll(Suite, Pool);
  }

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("chaining speedup"));
  T.cell(std::string("basic-only speedup"));
  T.cell(std::string("chaining spawns"));
  T.cell(std::string("basic spawns"));

  for (const workloads::Workload &W : workloads::fullSuite()) {
    const BenchResult &A = Full.run(W);
    const BenchResult &B = BasicOnly.run(W);
    T.row();
    T.cell(W.Name);
    T.cell(A.speedupIO(), 2);
    T.cell(B.speedupIO(), 2);
    T.cell(static_cast<unsigned long long>(A.SspIO.SpawnsSucceeded));
    T.cell(static_cast<unsigned long long>(B.SspIO.SpawnsSucceeded));
  }
  T.print();

  std::printf("\npaper: chaining enables long-range prefetching because "
              "spawning inside the speculative threads avoids the spawning "
              "overhead on the main thread; basic SP alone loses most of "
              "the benefit on do-across loops.\n");
  return 0;
}
