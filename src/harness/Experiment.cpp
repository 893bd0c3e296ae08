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

const profile::ProfileData &
SuiteRunner::profileOf(const workloads::Workload &W) {
  CacheEntry<profile::ProfileData> &E = entryFor(Profiles, W.Name);
  std::call_once(E.Once, [&] {
    E.Value = core::profileProgram(originalOf(W), W.BuildMemory);
  });
  return E.Value;
}

std::unordered_set<ir::StaticId>
SuiteRunner::delinquentIdsOf(const workloads::Workload &W) {
  const profile::ProfileData &PD = profileOf(W);
  const ir::Program &P = originalOf(W);
  std::unordered_set<ir::StaticId> Ids;
  for (const profile::DelinquentLoad &D : profile::selectDelinquentLoads(
           P, PD, Opts.DelinquentCoverage, Opts.MaxDelinquentLoads))
    Ids.insert(D.Sid);
  return Ids;
}

sim::SimStats SuiteRunner::simulateOriginal(const workloads::Workload &W,
                                            sim::MachineConfig Cfg) {
  return simulate(originalOf(W), W, std::move(Cfg));
}

void SuiteRunner::computeResult(const workloads::Workload &W, BenchResult &R,
                                support::ThreadPool *Pool) {
  R.Name = W.Name;
  const ir::Program &Orig = originalOf(W);

  bool OkBaseIO = true, OkSspIO = true, OkBaseOOO = true, OkSspOOO = true;
  if (Pool && Pool->numThreads() > 1) {
    // The baseline simulations need no profile: start them immediately so
    // they overlap the profiling run and the adaptation.
    std::future<void> FBaseIO = Pool->submit([&] {
      R.BaseIO = simulate(Orig, W, ioCfg(), &OkBaseIO);
    });
    std::future<void> FBaseOOO = Pool->submit([&] {
      R.BaseOOO =
          simulate(Orig, W, oooCfg(), &OkBaseOOO);
    });
    const profile::ProfileData &PD = profileOf(W);
    core::PostPassTool Tool(Orig, PD, Opts);
    ir::Program Enhanced = Tool.adapt(&R.Report);
    std::future<void> FSspIO = Pool->submit([&] {
      R.SspIO =
          simulate(Enhanced, W, ioCfg(), &OkSspIO);
    });
    // Run the fourth simulation here instead of idling on the futures.
    R.SspOOO =
        simulate(Enhanced, W, oooCfg(), &OkSspOOO);
    FBaseIO.get();
    FBaseOOO.get();
    FSspIO.get();
  } else {
    const profile::ProfileData &PD = profileOf(W);
    core::PostPassTool Tool(Orig, PD, Opts);
    ir::Program Enhanced = Tool.adapt(&R.Report);
    R.BaseIO = simulate(Orig, W, ioCfg(), &OkBaseIO);
    R.SspIO =
        simulate(Enhanced, W, ioCfg(), &OkSspIO);
    R.BaseOOO =
        simulate(Orig, W, oooCfg(), &OkBaseOOO);
    R.SspOOO =
        simulate(Enhanced, W, oooCfg(), &OkSspOOO);
  }
  R.ChecksumsOk = OkBaseIO && OkSspIO && OkBaseOOO && OkSspOOO;
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
  // Phase 1: every profile (one full functional + one timing run each) in
  // parallel. Phase 2: one pipeline job per workload; each runs its four
  // simulations serially inside the job, so pool workers never block on
  // nested submissions. call_once makes both phases idempotent.
  Pool.parallelFor(Ws.size(), [&](size_t I) { profileOf(Ws[I]); });
  Pool.parallelFor(Ws.size(), [&](size_t I) { run(Ws[I], nullptr); });
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
