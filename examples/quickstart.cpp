//===- examples/quickstart.cpp - 60-second tour of the public API ---------===//
//
// Builds the paper's running example (the mcf-style arc-scan loop of
// Figure 3), profiles it, runs the post-pass tool, and compares the
// baseline and SSP-enhanced binaries on the in-order research Itanium
// model. Start here.
//
//   1. A Workload supplies the original binary (IR) and its data image.
//   2. profileProgram() is the paper's first pass: block/edge frequencies
//      plus the cache profile from a baseline timing simulation.
//   3. PostPassTool::adapt() is the paper's second pass: delinquent load
//      selection, slicing, scheduling, trigger placement, rewriting.
//   4. runProgram() simulates both binaries cycle by cycle.
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "sim/Run.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace ssp;

int main() {
  // (1) The original single-threaded binary and its data image.
  workloads::Workload W = workloads::makeArcKernel();
  ir::Program Original = W.Build();

  // (2) Profiling feedback (Figure 1's two-pass flow).
  profile::ProfileData Profile =
      core::profileProgram(Original, W.BuildMemory);
  std::printf("profiled: baseline in-order run took %llu cycles\n",
              static_cast<unsigned long long>(Profile.BaselineCycles));

  // (3) Post-pass adaptation.
  core::PostPassTool Tool(Original, Profile);
  core::AdaptationReport Report;
  ir::Program Enhanced = Tool.adapt(&Report);
  std::printf("tool: %u delinquent load(s), %u slice(s) installed, "
              "%u trigger(s) inserted\n",
              Report.DelinquentLoads, Report.numSlices(),
              Report.Rewrite.TriggersInserted);
  for (const core::SliceReport &S : Report.Slices)
    std::printf("  slice in %s: %u insts, %u live-ins, %s SP, slack "
                "%llu cycles/iter\n",
                S.FunctionName.c_str(), S.Size, S.LiveIns,
                sched::modelName(S.Model),
                static_cast<unsigned long long>(S.SlackPerIteration));

  // (4) Measure both binaries on the in-order model.
  auto Run = [&](const ir::Program &P) {
    return sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory,
                           sim::MachineConfig::inOrder())
        .Stats;
  };
  sim::SimStats Base = Run(Original);
  sim::SimStats Ssp = Run(Enhanced);

  std::printf("\nbaseline : %8llu cycles (IPC %.2f)\n",
              static_cast<unsigned long long>(Base.Cycles), Base.ipc());
  std::printf("with SSP : %8llu cycles (IPC %.2f), %llu prefetch threads "
              "spawned\n",
              static_cast<unsigned long long>(Ssp.Cycles), Ssp.ipc(),
              static_cast<unsigned long long>(Ssp.SpawnsSucceeded));
  std::printf("speedup  : %.2fx\n",
              static_cast<double>(Base.Cycles) /
                  static_cast<double>(Ssp.Cycles));
  return 0;
}
