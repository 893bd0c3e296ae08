//===- harness/Experiment.cpp - Shared experiment harness -----------------===//

#include "harness/Experiment.h"

#include "support/Assert.h"
#include "support/FlagParser.h"

#include <cstdio>
#include <cstdlib>

using namespace ssp;
using namespace ssp::harness;

sim::SimStats SuiteRunner::simulate(const ir::Program &P,
                                    const workloads::Workload &W,
                                    sim::MachineConfig Cfg,
                                    bool *ChecksumOk) {
  sim::RunOutcome R =
      sim::runProgram(ir::LinkedProgram::link(P), W.BuildMemory, Cfg);
  if (ChecksumOk)
    *ChecksumOk = R.checksumOk();
  return std::move(R.Stats);
}

const ir::Program &SuiteRunner::originalOf(const workloads::Workload &W) {
  CacheEntry<ir::Program> &E = entryFor(Originals, W.Name);
  std::call_once(E.Once, [&] { E.Value = W.Build(); });
  return E.Value;
}

const SuiteRunner::Profiled &
SuiteRunner::profiledOf(const workloads::Workload &W) {
  CacheEntry<Profiled> &E = entryFor(Profiles, W.Name);
  std::call_once(E.Once, [&] {
    E.Value.PD = core::profileProgram(originalOf(W), W.BuildMemory,
                                      &E.Value.Baseline);
  });
  return E.Value;
}

const Adapted &SuiteRunner::adaptedOf(const workloads::Workload &W) {
  CacheEntry<Adapted> &E = entryFor(Adaptations, W.Name);
  std::call_once(E.Once, [&] {
    core::PostPassTool Tool(originalOf(W), profileOf(W), Opts);
    E.Value.Program = Tool.adapt(&E.Value.Report);
  });
  return E.Value;
}

std::unordered_set<ir::StaticId>
SuiteRunner::delinquentIdsOf(const workloads::Workload &W) {
  std::unordered_set<ir::StaticId> Ids;
  for (const profile::DelinquentLoad &D : profile::selectDelinquentLoads(
           originalOf(W), profileOf(W), Opts.DelinquentCoverage,
           Opts.MaxDelinquentLoads))
    Ids.insert(D.Sid);
  return Ids;
}

sim::SimStats SuiteRunner::simulateOriginal(const workloads::Workload &W,
                                            sim::MachineConfig Cfg,
                                            bool *ChecksumOk) {
  if (Cfg != sim::MachineConfig::inOrder())
    return simulate(originalOf(W), W, std::move(Cfg), ChecksumOk);
  const sim::RunOutcome &Base = profiledOf(W).Baseline;
  if (ChecksumOk)
    *ChecksumOk = Base.checksumOk();
  return Base.Stats;
}

void SuiteRunner::computeResult(const workloads::Workload &W, BenchResult &R,
                                support::ThreadPool *Pool) {
  R.Name = W.Name;
  const Adapted &A = adaptedOf(W);
  R.Report = A.Report;

  // Runs in BenchResult order: original then adapted, in-order first.
  sim::SimStats *Outs[] = {&R.BaseIO, &R.SspIO, &R.BaseOOO, &R.SspOOO};
  bool Ok[] = {false, false, false, false};
  support::ThreadPool Inline(1);
  (Pool ? *Pool : Inline).parallelFor(4, [&](size_t I) {
    sim::MachineConfig Cfg = cfgFor(I >= 2);
    *Outs[I] = I % 2 == 0 ? simulateOriginal(W, Cfg, &Ok[I])
                          : simulate(A.Program, W, Cfg, &Ok[I]);
  });
  R.ChecksumsOk = Ok[0] && Ok[1] && Ok[2] && Ok[3];
  if (!R.ChecksumsOk)
    fatalError("workload checksum mismatch: adaptation corrupted results");
}

const BenchResult &SuiteRunner::run(const workloads::Workload &W,
                                    support::ThreadPool *Pool) {
  CacheEntry<BenchResult> &E = entryFor(Cache, W.Name);
  std::call_once(E.Once, [&] { computeResult(W, E.Value, Pool); });
  return E.Value;
}

void SuiteRunner::runAll(const std::vector<workloads::Workload> &Ws,
                         support::ThreadPool &Pool) {
  Pool.parallelFor(Ws.size(), [&](size_t I) { run(Ws[I], &Pool); });
}

BenchArgs ssp::harness::parseBenchArgs(int argc, char **argv,
                                       unsigned Flags) {
  BenchArgs A;
  support::FlagParser P(argc, argv);
  std::string Usage;
  if (Flags & JobsFlag) {
    P.flag("--jobs", A.Jobs, 0, 512);
    Usage += " [--jobs N]";
  }
  if (Flags & NoSkipFlag) {
    P.flag("--no-skip", A.NoSkip);
    Usage += " [--no-skip]";
  }
  if (Flags & SampleFlag) {
    P.flagEq("--sample", [&A](const char *V) {
      return V ? sim::parseSamplingPlan(V, A.Sample)
               : (A.Sample = sim::SamplingPlan::defaults(), true);
    });
    Usage += " [--sample[=W:D:F[:R]]]";
  }
  if (!P.parse()) {
    std::fprintf(stderr, "usage: %s%s\n", argv[0], Usage.c_str());
    std::exit(1);
  }
  return A;
}

void ssp::harness::printMachineBanner() {
  std::printf(
      "machine model (paper Table 1): SMT x4 contexts | in-order 12-stage / "
      "OOO 16-stage (ROB 255, RS 18)\n"
      "fetch/issue 2 bundles from 1 thread or 1+1 from 2 | 4 int, 2 FP, 3 "
      "br, 2 mem ports | GSHARE 2k + BTB 256\n"
      "L1 16KB/4w/2cyc, L2 256KB/4w/14cyc, L3 3MB/12w/30cyc, 64B lines, "
      "16-entry fill buffer, mem 230cyc, TLB miss 30cyc\n\n");
}
