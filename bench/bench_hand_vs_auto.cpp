//===- bench/bench_hand_vs_auto.cpp - Section 4.5 --------------------------===//
//
// Regenerates the Section 4.5 comparison: the automatically adapted mcf
// and health binaries versus the hand-adapted versions of Wang et al.,
// which the paper credits with aggressive recursion inlining the tool
// cannot perform. The paper's numbers: on in-order, hand wins 73% vs 37%
// (mcf) and 130% vs 103% (health); on OOO health, hand wins 200% vs 120%.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Section 4.5: automatic vs. hand adaptation ===\n");
  printMachineBanner();

  SuiteRunner Runner;
  Runner.setSamplingPlan(Args.Sample);
  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("pipeline"));
  T.cell(std::string("auto speedup"));
  T.cell(std::string("hand speedup"));
  T.cell(std::string("auto/hand gain"));
  T.cell(std::string("paper auto"));
  T.cell(std::string("paper hand"));

  struct Pair {
    workloads::Workload Base;
    workloads::Workload Hand;
    double PaperAutoIO, PaperHandIO, PaperAutoOOO, PaperHandOOO;
  } Pairs[2] = {
      {workloads::makeMcf(), workloads::makeMcfHandAdapted(), 1.37, 1.73,
       1.0, 1.0},
      {workloads::makeHealth(), workloads::makeHealthHandAdapted(), 2.03,
       2.30, 2.20, 3.00},
  };

  // Six independent jobs: the two auto pipelines (4 simulations each,
  // serial inside the job) and the four hand-adapted simulations. Results
  // land in fixed slots so the report below is identical for any --jobs.
  sim::SimStats HandStats[4];
  bool HandOk[4] = {true, true, true, true};
  support::ThreadPool Pool(Args.Jobs);
  Pool.parallelFor(6, [&](size_t I) {
    if (I < 2) {
      Runner.run(Pairs[I].Base);
      return;
    }
    size_t Slot = I - 2;
    Pair &P = Pairs[Slot / 2];
    sim::MachineConfig Cfg = Slot % 2 == 0
                                 ? sim::MachineConfig::inOrder()
                                 : sim::MachineConfig::outOfOrder();
    // The runner's estimator: under --sample the hand speedup divides two
    // sampled cycle counts, never a sampled one by an exact one.
    Cfg.Sample = Args.Sample;
    ir::Program HandProg = P.Hand.Build();
    HandStats[Slot] =
        SuiteRunner::simulate(HandProg, P.Hand, Cfg, &HandOk[Slot]);
  });

  for (size_t PI = 0; PI < 2; ++PI) {
    Pair &P = Pairs[PI];
    const BenchResult &Auto = Runner.run(P.Base);
    for (auto Pipeline :
         {sim::PipelineKind::InOrder, sim::PipelineKind::OutOfOrder}) {
      bool InOrder = Pipeline == sim::PipelineKind::InOrder;
      size_t Slot = PI * 2 + (InOrder ? 0 : 1);
      const sim::SimStats &Hand = HandStats[Slot];
      if (!HandOk[Slot])
        std::printf("WARNING: %s checksum mismatch\n", P.Hand.Name.c_str());
      uint64_t Base = InOrder ? Auto.BaseIO.Cycles : Auto.BaseOOO.Cycles;
      uint64_t AutoCycles = InOrder ? Auto.SspIO.Cycles : Auto.SspOOO.Cycles;
      double SAuto = static_cast<double>(Base) / AutoCycles;
      double SHand = static_cast<double>(Base) / Hand.Cycles;
      // Fraction of the hand adaptation's *gain* the tool achieves,
      // clamped to [0, 1] (negative means the tool regressed the config).
      double GainShare =
          SHand > 1.0 ? (SAuto - 1.0) / (SHand - 1.0) : 1.0;
      GainShare = std::min(1.0, std::max(0.0, GainShare));
      T.row();
      T.cell(P.Base.Name);
      T.cell(std::string(InOrder ? "in-order" : "ooo"));
      T.cell(SAuto, 2);
      T.cell(SHand, 2);
      T.cell(GainShare, 2);
      T.cell(InOrder ? P.PaperAutoIO : P.PaperAutoOOO, 2);
      T.cell(InOrder ? P.PaperHandIO : P.PaperHandOOO, 2);
    }
  }
  T.print();

  std::printf("\npaper: the tool loses at most 20%% of the hand-tuned "
              "performance on in-order and 27%% on OOO; the loss comes "
              "from the aggressive inlining of recursive calls the "
              "programmer performs by hand (health).\n");
  return 0;
}
