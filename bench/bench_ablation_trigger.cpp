//===- bench/bench_ablation_trigger.cpp - trigger placement ablation -------===//
//
// Quantifies Section 3.3's triggering trade-off two ways: (1) the cost of
// the tool's conservative trigger heuristic versus the optimal max-flow
// min-cut placement (frequency-weighted cut over the region entry edges),
// and (2) the effect of the chain restart triggers that re-launch a dead
// chain from the loop header.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Ablation: trigger placement — heuristic vs min-cut, "
              "restart triggers ===\n");
  printMachineBanner();

  SuiteRunner Full;
  core::ToolOptions NoRestart;
  NoRestart.EnableRestartTriggers = false;
  SuiteRunner WithoutRestart(NoRestart);

  // Warm every runner across the suite on the pool; the report loop
  // below then reads cached results, so the output is identical for any
  // --jobs value.
  const std::vector<workloads::Workload> Suite = workloads::fullSuite();
  support::ThreadPool Pool(Args.Jobs);
  for (SuiteRunner *R : {&Full, &WithoutRestart}) {
    R->setSamplingPlan(Args.Sample);
    R->runAll(Suite, Pool);
  }

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("speedup"));
  T.cell(std::string("no-restart speedup"));
  T.cell(std::string("heuristic cost"));
  T.cell(std::string("min-cut cost"));
  T.cell(std::string("ratio"));

  for (const workloads::Workload &W : workloads::fullSuite()) {
    const BenchResult &A = Full.run(W);
    const BenchResult &B = WithoutRestart.run(W);
    uint64_t Heuristic = 0, MinCut = 0;
    for (const core::SliceReport &S : A.Report.Slices) {
      Heuristic += S.HeuristicTriggerCost;
      MinCut += S.MinCutTriggerCost;
    }
    double Ratio = MinCut > 0 ? static_cast<double>(Heuristic) /
                                    static_cast<double>(MinCut)
                              : 1.0;
    T.row();
    T.cell(W.Name);
    T.cell(A.speedupIO(), 2);
    T.cell(B.speedupIO(), 2);
    T.cell(static_cast<unsigned long long>(Heuristic));
    T.cell(static_cast<unsigned long long>(MinCut));
    T.cell(Ratio, 2);
  }
  T.print();

  std::printf("\npaper: optimal triggering maps to max-flow min-cut but "
              "precise costs are impractical, so the tool places triggers "
              "conservatively (after the last live-in, hoisted to "
              "immediate dominators); a ratio of 1.00 means the heuristic "
              "matched the optimal cut weight. Restart triggers are this "
              "reproduction's mechanism for re-launching chains whose "
              "spawn found no free context.\n");
  return 0;
}
