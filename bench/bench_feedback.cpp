//===- bench/bench_feedback.cpp - closed-loop re-adaptation evaluation ----===//
//
// The headline experiment of the feedback subsystem: for every workload of
// the paper suite, run the one-shot adaptation and the closed feedback
// loop (adapt -> simulate -> fold per-trigger prefetch fates into per-load
// directives -> re-adapt, to a fixpoint or 4 rounds, monotonic accept) and
// report the speedup delta of the fixpoint binary over the one-shot one.
//
// The per-round decision trace (hoists, deepenings, throttles, drops) is
// printed for every workload, and the fixpoint binary's checksum is
// validated against the analytically expected value.
//
// The exit code is the loop's acceptance bar: it is 1 unless checksums
// hold, verify reports no errors, no workload regresses, every loop
// reaches its fixpoint with its round counts in bounds, every improvement
// is backed by feedback decisions, and >= 2 workloads improve.
//
//   bench_feedback [--jobs N] [--no-skip] [--sample[=W:D:F[:R]]]
//
// --sample applies to the loop's *internal* per-round simulations; the
// final reported speedups always come from full-detail runs so the
// headline numbers are exact.
//
//===----------------------------------------------------------------------===//

#include "core/Feedback.h"
#include "core/ReportRender.h"
#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace ssp;
using namespace ssp::harness;

namespace {

struct WorkloadOutcome {
  std::string Name;
  double OneShot = 0.0;
  double Feedback = 0.0;
  unsigned Rounds = 0;
  unsigned AcceptedRounds = 0;
  unsigned Decisions = 0;
  bool Fixpoint = false;
  bool ChecksumOk = false;
  unsigned VerifyErrors = 0;
  std::string Trace; ///< renderFeedbackText of the loop.
};

WorkloadOutcome runOne(const workloads::Workload &W, const BenchArgs &Args) {
  WorkloadOutcome O;
  O.Name = W.Name;

  ir::Program Orig = W.Build();
  profile::ProfileData PD = core::profileProgram(Orig, W.BuildMemory);

  core::ToolOptions TO;
  TO.FeedbackRounds = core::DefaultFeedbackRounds;
  core::FeedbackResult FR =
      core::runFeedbackLoop(Orig, PD, TO, W.BuildMemory, Args.Sample);

  O.OneShot = FR.OneShotSpeedup;
  O.Feedback = FR.BestSpeedup;
  O.Rounds = static_cast<unsigned>(FR.Rounds.size());
  O.Fixpoint = FR.Fixpoint;
  O.VerifyErrors = FR.BestReport.VerifyErrors;
  O.Trace = core::renderFeedbackText(FR);
  for (const core::FeedbackRound &R : FR.Rounds) {
    if (R.Accepted)
      ++O.AcceptedRounds;
    O.Decisions += static_cast<unsigned>(R.Decisions.size());
  }

  // Validate the delivered binary end-to-end: the fixpoint program must
  // still compute the workload's expected checksum.
  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  Cfg.SkipIdleCycles = !Args.NoSkip;
  O.ChecksumOk =
      sim::runProgram(ir::LinkedProgram::link(FR.Best), W.BuildMemory, Cfg)
          .checksumOk();
  return O;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  std::printf("=== Closed-loop feedback-directed re-adaptation "
              "(max %u rounds) ===\n",
              core::DefaultFeedbackRounds);
  printMachineBanner();

  const std::vector<workloads::Workload> Suite = workloads::paperSuite();
  std::vector<WorkloadOutcome> Out(Suite.size());
  support::ThreadPool Pool(Args.Jobs);
  Pool.parallelFor(Suite.size(),
                   [&](size_t I) { Out[I] = runOne(Suite[I], Args); });

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("one-shot"));
  T.cell(std::string("feedback"));
  T.cell(std::string("delta"));
  T.cell(std::string("rounds"));
  T.cell(std::string("decisions"));
  T.cell(std::string("fixpoint"));
  for (const WorkloadOutcome &O : Out) {
    T.row();
    T.cell(O.Name);
    T.cell(O.OneShot, 3);
    T.cell(O.Feedback, 3);
    T.cell(O.Feedback - O.OneShot, 3);
    T.cell(static_cast<unsigned long long>(O.Rounds));
    T.cell(static_cast<unsigned long long>(O.Decisions));
    T.cell(std::string(O.Fixpoint ? "yes" : "no"));
  }
  T.print();

  std::printf("\n");
  for (const WorkloadOutcome &O : Out) {
    std::printf("--- %s ---\n", O.Name.c_str());
    std::fputs(O.Trace.c_str(), stdout);
  }

  unsigned Improved = 0, Regressed = 0, MaxRoundsUsed = 0;
  unsigned TotalErrors = 0;
  bool AllFixpoint = true, ChecksumsOk = true, LoopOk = true;
  for (const WorkloadOutcome &O : Out) {
    // Strict comparison: the monotonic-accept rule makes feedback < one-
    // shot impossible, so any regression here is a harness/loop bug.
    if (O.Feedback > O.OneShot) {
      ++Improved;
      if (O.Decisions == 0) {
        std::fprintf(stderr, "%s: improved with zero feedback decisions\n",
                     O.Name.c_str());
        LoopOk = false;
      }
    }
    if (O.Feedback < O.OneShot)
      ++Regressed;
    // Round 1 (the one-shot binary) is always accepted.
    if (O.Rounds < 1 || O.Rounds > core::DefaultFeedbackRounds ||
        O.AcceptedRounds < 1 || O.AcceptedRounds > O.Rounds) {
      std::fprintf(stderr, "%s: %u rounds, %u accepted, outside bounds\n",
                   O.Name.c_str(), O.Rounds, O.AcceptedRounds);
      LoopOk = false;
    }
    MaxRoundsUsed = std::max(MaxRoundsUsed, O.Rounds);
    AllFixpoint = AllFixpoint && O.Fixpoint;
    ChecksumsOk = ChecksumsOk && O.ChecksumOk;
    TotalErrors += O.VerifyErrors;
  }

  std::printf("feedback: %u workloads improved, %u regressed, max %u "
              "rounds, fixpoint %s, %u verify errors\n",
              Improved, Regressed, MaxRoundsUsed,
              AllFixpoint ? "everywhere" : "NOT reached", TotalErrors);

  return (ChecksumsOk && TotalErrors == 0 && Regressed == 0 && AllFixpoint &&
          LoopOk && Improved >= 2)
             ? 0
             : 1;
}
