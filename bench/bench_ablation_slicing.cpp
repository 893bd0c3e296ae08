//===- bench/bench_ablation_slicing.cpp - speculative slicing ablation -----===//
//
// Ablates control-flow speculative slicing (Section 3.1.2): with it, cold
// (never-executed) blocks are filtered from slices and indirect calls are
// resolved to their profiled targets only; without it, slices follow all
// static paths and grow, losing slack and sometimes exceeding the size cap
// ("empirical results have shown that pure static slicing may introduce a
// large number of unnecessary instructions").
//
// Second arm pair: speculation-aware dependence pruning (--spec-deps in
// ssp-adapt). With it, may-dependence edges the profile shows cold are
// dropped from the slices; without it, every conservative edge is honored.
// The pair reports per-workload slice-length and speedup deltas; every
// drop is re-audited by the speculation.* verify pass, whose error count
// is part of the report.
//
// The exit code is the pair's acceptance bar: it is 1 unless checksums
// hold, the speculation.* pass reports no errors, no workload's slices
// grow, every shrink is backed by dropped edges, the spec-on arm never
// regresses a speedup, and slices get shorter on >= 2 workloads. All of
// it is simulated cycles and slice shapes, so it holds on loaded hosts.
//
//   bench_ablation_slicing [--jobs N] [--no-skip] [--sample[=W:D:F[:R]]]
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <string>

using namespace ssp;
using namespace ssp::harness;

namespace {

/// Confidence threshold of the spec-deps arm: an edge observed in at most
/// this fraction of the consumer's executions is considered cold. The
/// paper suite's prunable carried edges are either never activated
/// (treeadd.bf's queue-tail cross flows) or activate once per pass (the
/// mcf/vpr pointer resyncs), so a conservative 0.05 already separates
/// them from the every-trip induction edges.
constexpr double kSpecThreshold = 0.05;

unsigned droppedEdges(const core::AdaptationReport &R) {
  size_t N = 0;
  for (const verify::SliceManifest &SM : R.Manifest.Slices)
    N += SM.SpecDrops.size();
  return static_cast<unsigned>(N);
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  std::printf("=== Ablation: control-flow speculative slicing ===\n");
  printMachineBanner();

  SuiteRunner Full;
  core::ToolOptions NoSpec;
  NoSpec.Slicing.Speculative = false;
  SuiteRunner StaticOnly(NoSpec);
  core::ToolOptions SpecDeps;
  SpecDeps.EnableSpecDeps = true;
  SpecDeps.SpecDepThreshold = kSpecThreshold;
  SuiteRunner SpecOn(SpecDeps);

  // Warm every runner across the suite on the pool; the report loops
  // below then read cached results, so the output is identical for any
  // --jobs value.
  const std::vector<workloads::Workload> Suite = workloads::paperSuite();
  support::ThreadPool Pool(Args.Jobs);
  for (SuiteRunner *R : {&Full, &StaticOnly, &SpecOn}) {
    R->setSkipIdleCycles(!Args.NoSkip);
    if (Args.Sample.enabled())
      R->setSamplingPlan(Args.Sample);
    R->runAll(Suite, Pool);
  }

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("speculative speedup"));
  T.cell(std::string("static speedup"));
  T.cell(std::string("spec avg size"));
  T.cell(std::string("static avg size"));
  T.cell(std::string("spec slices"));
  T.cell(std::string("static slices"));

  for (const workloads::Workload &W : Suite) {
    const BenchResult &A = Full.run(W);
    const BenchResult &B = StaticOnly.run(W);
    T.row();
    T.cell(W.Name);
    T.cell(A.speedupIO(), 2);
    T.cell(B.speedupIO(), 2);
    T.cell(A.Report.averageSize(), 1);
    T.cell(B.Report.averageSize(), 1);
    T.cell(static_cast<unsigned long long>(A.Report.numSlices()));
    T.cell(static_cast<unsigned long long>(B.Report.numSlices()));
  }
  T.print();

  std::printf("\npaper: slice-pruning (speculative + region-based slicing) "
              "is key for SSP — a precise slicing tool may not produce "
              "useful slices if precomputation is untimely.\n");

  std::printf("\n=== Ablation: speculation-aware dependence pruning "
              "(threshold %.2f) ===\n",
              kSpecThreshold);
  TablePrinter T2;
  T2.row();
  T2.cell(std::string("benchmark"));
  T2.cell(std::string("off speedup"));
  T2.cell(std::string("on speedup"));
  T2.cell(std::string("off avg size"));
  T2.cell(std::string("on avg size"));
  T2.cell(std::string("dropped edges"));
  T2.cell(std::string("verify errors"));

  unsigned Shorter = 0, Regressions = 0, TotalDrops = 0, TotalErrors = 0;
  bool ChecksumsOk = true, SlicesOk = true;
  for (const workloads::Workload &W : Suite) {
    const BenchResult &Off = Full.run(W);
    const BenchResult &On = SpecOn.run(W);
    unsigned Drops = droppedEdges(On.Report);
    double LenOff = Off.Report.averageSize();
    double LenOn = On.Report.averageSize();
    if (LenOn > LenOff) {
      std::fprintf(stderr, "%s: spec-deps grew the slices\n",
                   W.Name.c_str());
      SlicesOk = false;
    }
    if (LenOn < LenOff) {
      ++Shorter;
      if (Drops == 0) {
        std::fprintf(stderr, "%s: slices shrank with zero dropped edges\n",
                     W.Name.c_str());
        SlicesOk = false;
      }
    }
    if (On.speedupIO() < Off.speedupIO())
      ++Regressions;
    TotalDrops += Drops;
    TotalErrors += On.Report.VerifyErrors;
    ChecksumsOk = ChecksumsOk && Off.ChecksumsOk && On.ChecksumsOk;

    T2.row();
    T2.cell(W.Name);
    T2.cell(Off.speedupIO(), 2);
    T2.cell(On.speedupIO(), 2);
    T2.cell(LenOff, 1);
    T2.cell(LenOn, 1);
    T2.cell(static_cast<unsigned long long>(Drops));
    T2.cell(static_cast<unsigned long long>(On.Report.VerifyErrors));
  }
  T2.print();

  std::printf("\nspec-deps: %u workloads with shorter slices, %u dropped "
              "edges, %u verify errors, %u speedup regressions\n",
              Shorter, TotalDrops, TotalErrors, Regressions);
  return (ChecksumsOk && TotalErrors == 0 && SlicesOk && Regressions == 0 &&
          Shorter >= 2)
             ? 0
             : 1;
}
