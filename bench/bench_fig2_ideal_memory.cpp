//===- bench/bench_fig2_ideal_memory.cpp - Figure 2 ------------------------===//
//
// Regenerates Figure 2 of the paper: for every benchmark, the speedup when
// assuming a perfect memory subsystem (all loads hit L1) versus the speedup
// when only the selected delinquent loads always hit, on both the in-order
// and the out-of-order research models. The second bar is the upper bound
// on what the post-pass tool can achieve; the paper's observation is that
// eliminating only the delinquent loads yields most of the perfect-memory
// speedup, and that the OOO model has less room for improvement.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

int main(int argc, char **argv) {
  const BenchArgs Args = parseBenchArgs(argc, argv, JobsFlag | SampleFlag);
  std::printf("=== Figure 2: speedup with perfect memory vs. perfect "
              "delinquent loads ===\n");
  printMachineBanner();

  SuiteRunner Runner;
  Runner.setSamplingPlan(Args.Sample);
  support::ThreadPool Pool(Args.Jobs);

  // "Delinquent loads always hit" must be computed to a fixpoint: on
  // lines shared by several loads, idealizing the profiled miss-taker
  // just moves the miss to the next load of the same line (e.g. a list
  // node's payload and next-pointer). Each round idealizes the current
  // set, re-profiles, and adds newly delinquent loads.
  auto DelinquentFixpoint = [&](const workloads::Workload &W) {
    std::unordered_set<ir::StaticId> Ids = Runner.delinquentIdsOf(W);
    for (int Iter = 0; Iter < 3; ++Iter) {
      sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
      Cfg.PerfectLoads = Ids;
      sim::SimStats S = Runner.simulateOriginal(W, Cfg);
      std::vector<std::pair<uint64_t, ir::StaticId>> Remaining;
      uint64_t Total = 0;
      for (const auto &[Sid, St] : S.LoadProfile) {
        if (Ids.count(Sid) || St.MissCycles == 0)
          continue;
        Remaining.push_back({St.MissCycles, Sid});
        Total += St.MissCycles;
      }
      // Stop once the leftovers are insignificant (< 5% of the run).
      if (Total < S.Cycles / 20)
        break;
      std::sort(Remaining.rbegin(), Remaining.rend());
      uint64_t Covered = 0;
      for (const auto &[Miss, Sid] : Remaining) {
        if (Covered >= static_cast<uint64_t>(0.9 * Total))
          break;
        Ids.insert(Sid);
        Covered += Miss;
      }
    }
    return Ids;
  };

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("io perfect-mem"));
  T.cell(std::string("io perfect-delinq"));
  T.cell(std::string("ooo perfect-mem"));
  T.cell(std::string("ooo perfect-delinq"));
  T.cell(std::string("delinq loads"));

  // One pool job per benchmark row: the fixpoint and its six simulations
  // are independent across workloads. Rows land in fixed slots, so the
  // table below is identical for any --jobs value.
  const std::vector<workloads::Workload> Suite = workloads::paperSuite();
  struct RowData {
    double IoMem, IoDel, OooMem, OooDel;
    size_t DelinquentLoads;
  };
  std::vector<RowData> Rows(Suite.size());
  Pool.parallelFor(Suite.size(), [&](size_t I) {
    const workloads::Workload &W = Suite[I];
    std::unordered_set<ir::StaticId> Delinquent = DelinquentFixpoint(W);

    auto SpeedupWith = [&](sim::MachineConfig Cfg) {
      uint64_t Base = Runner.simulateOriginal(W, Cfg).Cycles;
      sim::MachineConfig PerfectMem = Cfg;
      PerfectMem.PerfectMemory = true;
      sim::MachineConfig PerfectDelinq = Cfg;
      PerfectDelinq.PerfectLoads = Delinquent;
      double SMem = static_cast<double>(Base) /
                    Runner.simulateOriginal(W, PerfectMem).Cycles;
      double SDel = static_cast<double>(Base) /
                    Runner.simulateOriginal(W, PerfectDelinq).Cycles;
      return std::pair<double, double>(SMem, SDel);
    };

    auto [IoMem, IoDel] = SpeedupWith(sim::MachineConfig::inOrder());
    auto [OooMem, OooDel] = SpeedupWith(sim::MachineConfig::outOfOrder());
    Rows[I] = {IoMem, IoDel, OooMem, OooDel, Delinquent.size()};
  });

  for (size_t I = 0; I < Suite.size(); ++I) {
    T.row();
    T.cell(Suite[I].Name);
    T.cell(Rows[I].IoMem, 2);
    T.cell(Rows[I].IoDel, 2);
    T.cell(Rows[I].OooMem, 2);
    T.cell(Rows[I].OooDel, 2);
    T.cell(static_cast<unsigned long long>(Rows[I].DelinquentLoads));
  }
  T.print();

  std::printf("\npaper: delinquent loads cover >= 90%% of miss cycles; "
              "eliminating only them yields most of the perfect-memory "
              "speedup, with less headroom on the OOO model.\n");
  return 0;
}
