//===- bench/bench_fig10_cycle_breakdown.cpp - Figure 10 -------------------===//
//
// Regenerates Figure 10 of the paper: the detailed cycle breakdown for the
// in-order and OOO models with and without SSP, normalized to the baseline
// in-order cycle count. Categories: L3/L2/L1 are stall cycles attributed
// to misses of that cache level while nothing issued, Cache+Exec counts
// cycles where execution overlapped an outstanding miss, Exec counts pure
// execution, Other covers branch bubbles, spawn flushes and remaining
// stalls. The paper shows em3d, treeadd.df and vpr; all seven are printed.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Figure 10: cycle breakdown normalized to baseline "
              "in-order (%%) ===\n");
  printMachineBanner();

  SuiteRunner Runner;
  Runner.setSamplingPlan(Args.Sample);
  support::ThreadPool Pool(Args.Jobs);
  Runner.runAll(workloads::paperSuite(), Pool);
  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("config"));
  T.cell(std::string("total%"));
  for (unsigned C = 0; C < sim::NumCycleCats; ++C)
    T.cell(std::string(
        sim::cycleCatName(static_cast<sim::CycleCat>(C))));

  for (const workloads::Workload &W : workloads::paperSuite()) {
    const BenchResult &R = Runner.run(W);
    double Norm = static_cast<double>(R.BaseIO.Cycles);
    struct Row {
      const char *Config;
      const sim::SimStats *Stats;
    } Rows[4] = {{"io", &R.BaseIO},
                 {"io+ssp", &R.SspIO},
                 {"ooo", &R.BaseOOO},
                 {"ooo+ssp", &R.SspOOO}};
    for (const Row &Cfg : Rows) {
      T.row();
      T.cell(W.Name);
      T.cell(std::string(Cfg.Config));
      T.cell(100.0 * static_cast<double>(Cfg.Stats->Cycles) / Norm, 1);
      for (unsigned C = 0; C < sim::NumCycleCats; ++C)
        T.cell(100.0 * static_cast<double>(Cfg.Stats->CatCycles[C]) / Norm,
               1);
    }
  }
  T.print();

  std::printf("\npaper: SSP's in-order speedup comes almost entirely from "
              "the L3 category (stalls on loads served by memory), a 135%% "
              "average improvement in that category alone; on OOO the L3 "
              "reduction persists but is partially offset elsewhere.\n");
  return 0;
}
