//===- bench/bench_ablation_throttle.cpp - dynamic trigger throttling ------===//
//
// Evaluates the paper's Section 4.4.1 future-work proposal, implemented
// here: "future dynamic optimizers can monitor the coverage and
// timeliness data associated with a prefetching thread and if the thread
// does not help reduce latency, future chk.c instructions for that thread
// will return no available context."
//
// The showcase is a phase-changing kernel whose working set becomes cache
// resident after its first pass: static SSP keeps spawning chains that
// prefetch already-cached lines, which is pure overhead (catastrophically
// so on the OOO model, where every chk.c exception flushes the deep
// pipeline); the throttle detects the useless prefetches and disables the
// trigger. On the paper suite the throttle must be neutral (all triggers
// there are genuinely useful).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

namespace {

struct Row {
  uint64_t Base, Ssp, SspThrottled;
  uint64_t Events, Useful, Prefetches;
};

Row measure(const workloads::Workload &W, const ir::Program &Orig,
            const ir::Program &Enhanced, sim::PipelineKind Pipe,
            const sim::SamplingPlan &Sample) {
  auto Run = [&](const ir::Program &P, bool Throttle) {
    sim::MachineConfig Cfg = Pipe == sim::PipelineKind::InOrder
                                 ? sim::MachineConfig::inOrder()
                                 : sim::MachineConfig::outOfOrder();
    Cfg.EnableSSPThrottle = Throttle;
    Cfg.Sample = Sample;
    return SuiteRunner::simulate(P, W, Cfg);
  };
  Row R{};
  R.Base = Run(Orig, false).Cycles;
  R.Ssp = Run(Enhanced, false).Cycles;
  sim::SimStats T = Run(Enhanced, true);
  R.SspThrottled = T.Cycles;
  R.Events = T.ThrottleEvents;
  R.Useful = T.UsefulPrefetches;
  R.Prefetches = T.SpecPrefetches;
  return R;
}

} // namespace

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Ablation: dynamic trigger throttling (paper Section "
              "4.4.1 future work) ===\n");
  printMachineBanner();

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("pipeline"));
  T.cell(std::string("ssp"));
  T.cell(std::string("ssp+throttle"));
  T.cell(std::string("throttle events"));
  T.cell(std::string("useful/prefetches"));

  std::vector<workloads::Workload> Suite = workloads::paperSuite();
  Suite.push_back(workloads::makePhasedKernel());

  // Adapt every workload in parallel, then one job per (workload,
  // pipeline) point; each point runs its three simulations serially
  // inside the job. The print loop then only reads the Rows array, so the
  // output is identical for any --jobs value.
  SuiteRunner Runner;
  support::ThreadPool Pool(Args.Jobs);
  Pool.parallelFor(Suite.size(), [&](size_t I) { Runner.adaptedOf(Suite[I]); });
  std::vector<Row> Rows(Suite.size() * 2);
  Pool.parallelFor(Rows.size(), [&](size_t I) {
    const workloads::Workload &W = Suite[I / 2];
    Rows[I] = measure(W, Runner.originalOf(W), Runner.adaptedOf(W).Program,
                      I % 2 == 0 ? sim::PipelineKind::InOrder
                                 : sim::PipelineKind::OutOfOrder,
                      Args.Sample);
  });

  for (size_t WI = 0; WI < Suite.size(); ++WI) {
    const workloads::Workload &W = Suite[WI];
    for (auto Pipe : {sim::PipelineKind::InOrder,
                      sim::PipelineKind::OutOfOrder}) {
      Row R = Rows[WI * 2 + (Pipe == sim::PipelineKind::InOrder ? 0 : 1)];
      char Frac[48];
      std::snprintf(Frac, sizeof(Frac), "%llu/%llu",
                    static_cast<unsigned long long>(R.Useful),
                    static_cast<unsigned long long>(R.Prefetches));
      T.row();
      T.cell(W.Name);
      T.cell(std::string(Pipe == sim::PipelineKind::InOrder ? "io"
                                                            : "ooo"));
      T.cell(static_cast<double>(R.Base) / R.Ssp, 2);
      T.cell(static_cast<double>(R.Base) / R.SspThrottled, 2);
      T.cell(static_cast<unsigned long long>(R.Events));
      T.cell(std::string(Frac));
    }
  }
  T.print();

  std::printf("\nexpected shape: near-identical columns on the paper "
              "suite; on the phased kernel the throttle recovers most of "
              "the OOO regression caused by useless chains.\n");
  return 0;
}
