//===- bench/bench_fig8_speedup.cpp - Figure 8 -----------------------------===//
//
// Regenerates Figure 8 of the paper: for every benchmark the speedups of
// (1) the SSP-enhanced binary on the in-order model, (2) the original
// binary on the OOO model, and (3) the SSP-enhanced binary on the OOO
// model — all over the baseline in-order processor. The paper reports an
// 87% average for (1), 175% for (2), and that SSP adds only ~5% on top of
// OOO; em3d, health and treeadd.bf exceed 2x on the in-order model.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Figure 8: speedups over the baseline in-order model ===\n");
  printMachineBanner();

  SuiteRunner Runner;
  Runner.setSamplingPlan(Args.Sample);
  support::ThreadPool Pool(Args.Jobs);
  Runner.runAll(workloads::fullSuite(), Pool);
  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("in-order+SSP"));
  T.cell(std::string("OOO"));
  T.cell(std::string("OOO+SSP"));
  T.cell(std::string("SSP-over-OOO"));
  T.cell(std::string("triggers"));
  T.cell(std::string("spawns"));

  // The printed average covers the paper's seven benchmarks only, so it
  // stays comparable to the published Figure 8 numbers; the indirect
  // stream workloads (fullSuite's tail) are reported as extra rows.
  const size_t NumPaper = workloads::paperSuite().size();
  double SumIO = 0, SumOOO = 0, SumSspOverOoo = 0;
  unsigned N = 0;
  size_t Idx = 0;
  for (const workloads::Workload &W : workloads::fullSuite()) {
    const BenchResult &R = Runner.run(W);
    double SspOverOoo = static_cast<double>(R.BaseOOO.Cycles) /
                        static_cast<double>(R.SspOOO.Cycles);
    T.row();
    T.cell(W.Name);
    T.cell(R.speedupIO(), 2);
    T.cell(R.speedupOOOOverIO(), 2);
    T.cell(R.speedupSspOOOOverIO(), 2);
    T.cell(SspOverOoo, 2);
    T.cell(static_cast<unsigned long long>(R.SspIO.TriggersFired));
    T.cell(static_cast<unsigned long long>(R.SspIO.SpawnsSucceeded));
    if (Idx++ < NumPaper) {
      SumIO += R.speedupIO();
      SumOOO += R.speedupOOOOverIO();
      SumSspOverOoo += SspOverOoo;
      ++N;
    }
  }
  T.row();
  T.cell(std::string("average (paper)"));
  T.cell(SumIO / N, 2);
  T.cell(SumOOO / N, 2);
  T.cell(std::string("-"));
  T.cell(SumSspOverOoo / N, 2);
  T.print();

  std::printf("\npaper: in-order+SSP averages 1.87x (87%%); OOO averages "
              "2.75x over in-order; SSP adds ~5%% on top of OOO. The shape "
              "to check: SSP transforms the in-order model but adds little "
              "on OOO, and treeadd.df benefits least.\n");
  return 0;
}
