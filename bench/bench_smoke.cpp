//===- bench/bench_smoke.cpp - end-to-end smoke benchmark ------------------===//
//
// Runs one small workload through the full pipeline (profile -> adapt ->
// four simulations) on the parallel harness, wall-clocks it, and prints a
// machine-readable JSON summary to stdout. The report carries one entry per
// workload tier (em3d, mcf, and two makeStress sizes): exact-with-skip
// throughput, sampled throughput under a per-tier SamplingPlan, the
// sampled-vs-exact speedup, and the sampled relative error on Cycles and
// on the prefetch-fate total. The em3d tier additionally times the
// no-skip baseline (the event-driven before/after pair) and the headline
// in-order SSP speedup.
//
// Tier notes: the stress tiers measure error on the *baseline* binary —
// their enhanced runs concentrate a handful of prefetch fates in a
// startup burst (a point mass no rate-extrapolating sampler can scale;
// see DESIGN.md "Sampled simulation"), so em3d, whose enhanced run
// retires tens of thousands of fates, is the meaningful fate-error tier.
// Sampled error values are deterministic (independent of --jobs and
// machine load); throughputs are best-of-two wall measurements. Every
// timed run checks its checksum; the exit code is 1 when any is wrong.
// The error bounds are pinned by tests/sample_test.cpp.
//
//   bench_smoke [--jobs N] [--no-skip] [--sample[=W:D:F[:R]]]
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

using namespace ssp;
using namespace ssp::harness;

namespace {

double seconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Signed relative error of \p Got against \p Want in percent. Both zero
/// counts as exact agreement (the stress baseline fate totals).
double relErrPct(uint64_t Got, uint64_t Want) {
  if (Want == 0)
    return Got == 0 ? 0.0 : 100.0;
  return 100.0 * (static_cast<double>(Got) - static_cast<double>(Want)) /
         static_cast<double>(Want);
}

/// One simulation of \p LP timed around Sim.run() only (link and memory
/// image construction excluded); returns the stats, best wall in \p Wall.
/// Every rep's checksum is checked by sim::runProgram's rule (the result
/// page is mapped and its word is the expected one); a wrong one clears
/// \p ChecksumOk.
sim::SimStats runTimed(const ir::LinkedProgram &LP,
                       const workloads::Workload &W,
                       const sim::MachineConfig &Cfg, unsigned Reps,
                       double &Wall, bool &ChecksumOk) {
  sim::SimStats S;
  Wall = 1e30;
  for (unsigned R = 0; R < Reps; ++R) {
    mem::SimMemory Mem;
    uint64_t Expected = W.BuildMemory(Mem);
    sim::Simulator Sim(Cfg, LP, Mem);
    auto Start = std::chrono::steady_clock::now();
    S = Sim.run();
    double T = seconds(Start);
    if (T < Wall)
      Wall = T;
    ChecksumOk = ChecksumOk && Mem.isMapped(mem::ResultAddr) &&
                 Mem.read(mem::ResultAddr) == Expected;
  }
  return S;
}

/// Everything the JSON report carries for one workload tier.
struct TierResult {
  std::string Name;
  std::string Plan;
  bool Enhanced = false; ///< Error measured on the adapted binary.
  double RateSkip = 0;
  double RateSampled = 0;
  double SampleSpeedup = 0;
  double ErrCyclesPct = 0; ///< Signed.
  double ErrFatesPct = 0;  ///< Signed.
  bool ChecksumOk = true;

  double maxAbsErrPct() const {
    return std::max(std::fabs(ErrCyclesPct), std::fabs(ErrFatesPct));
  }
};

/// Runs the exact-vs-sampled pair for one tier. \p Enhanced selects the
/// adapted binary (the fate-bearing run); the baseline otherwise.
TierResult runTier(SuiteRunner &Runner, const workloads::Workload &W,
                   const char *PlanStr, bool Enhanced) {
  TierResult T;
  T.Name = W.Name;
  T.Plan = PlanStr;
  T.Enhanced = Enhanced;

  sim::SamplingPlan Plan;
  sim::parseSamplingPlan(PlanStr, Plan);

  ir::LinkedProgram LP = ir::LinkedProgram::link(
      Enhanced ? Runner.adaptedOf(W).Program : Runner.originalOf(W));

  sim::MachineConfig Exact = sim::MachineConfig::inOrder();
  sim::MachineConfig Sampled = Exact;
  Sampled.Sample = Plan;

  double WallExact = 0, WallSampled = 0;
  sim::SimStats E = runTimed(LP, W, Exact, 2, WallExact, T.ChecksumOk);
  sim::SimStats S = runTimed(LP, W, Sampled, 2, WallSampled, T.ChecksumOk);

  T.RateSkip = WallExact > 0 ? static_cast<double>(E.Cycles) / WallExact : 0;
  T.RateSampled =
      WallSampled > 0 ? static_cast<double>(S.Cycles) / WallSampled : 0;
  T.SampleSpeedup = WallSampled > 0 ? WallExact / WallSampled : 0;
  T.ErrCyclesPct = relErrPct(S.Cycles, E.Cycles);
  T.ErrFatesPct =
      relErrPct(S.attributedPrefetches(), E.attributedPrefetches());
  return T;
}

void printTierJson(const TierResult &T, bool Last) {
  std::printf("    {\n"
              "      \"tier\": \"%s\",\n"
              "      \"plan\": \"%s\",\n"
              "      \"binary\": \"%s\",\n"
              "      \"sim_cycles_per_sec_skip\": %.0f,\n"
              "      \"sim_cycles_per_sec_sampled\": %.0f,\n"
              "      \"sample_speedup\": %.2f,\n"
              "      \"sample_error_pct_cycles\": %.2f,\n"
              "      \"sample_error_pct_fates\": %.2f,\n"
              "      \"sample_error_pct\": %.2f,\n"
              "      \"checksum_ok\": %s\n"
              "    }%s\n",
              T.Name.c_str(), T.Plan.c_str(),
              T.Enhanced ? "enhanced" : "baseline", T.RateSkip,
              T.RateSampled, T.SampleSpeedup, T.ErrCyclesPct, T.ErrFatesPct,
              T.maxAbsErrPct(), T.ChecksumOk ? "true" : "false",
              Last ? "" : ",");
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);

  SuiteRunner Runner;
  if (Args.NoSkip)
    Runner.setSkipIdleCycles(false);
  if (Args.Sample.enabled())
    Runner.setSamplingPlan(Args.Sample);
  support::ThreadPool Pool(Args.Jobs);
  workloads::Workload Em3d = workloads::makeEm3d();

  // Headline pipeline run (profile -> adapt -> four simulations).
  auto Start = std::chrono::steady_clock::now();
  const BenchResult &R = Runner.run(Em3d, &Pool);
  double WallSeconds = seconds(Start);
  uint64_t SimCycles = R.BaseIO.Cycles + R.SspIO.Cycles + R.BaseOOO.Cycles +
                       R.SspOOO.Cycles;
  double CyclesPerSec =
      WallSeconds > 0 ? static_cast<double>(SimCycles) / WallSeconds : 0;

  // Event-driven before/after on the em3d baseline: identical stats with
  // idle-cycle skipping on and off.
  ir::LinkedProgram LP = ir::LinkedProgram::link(Runner.originalOf(Em3d));
  sim::MachineConfig Skip = sim::MachineConfig::inOrder();
  sim::MachineConfig NoSkip = Skip;
  NoSkip.SkipIdleCycles = false;
  double WallSkip = 0, WallNoSkip = 0;
  bool SkipPairOk = true;
  sim::SimStats SS = runTimed(LP, Em3d, Skip, 2, WallSkip, SkipPairOk);
  sim::SimStats SN = runTimed(LP, Em3d, NoSkip, 2, WallNoSkip, SkipPairOk);
  double RateSkip =
      WallSkip > 0 ? static_cast<double>(SS.Cycles) / WallSkip : 0;
  double RateNoSkip =
      WallNoSkip > 0 ? static_cast<double>(SN.Cycles) / WallNoSkip : 0;

  // Sampled-simulation tiers. Plans are period-matched to each workload's
  // phase length (see DESIGN.md); the stress plans target the sampler's
  // >=5x-at-<=2%-error acceptance point.
  std::vector<TierResult> Tiers;
  Tiers.push_back(runTier(Runner, Em3d, "4000:2000:6000:4000",
                          /*Enhanced=*/true));
  Tiers.push_back(runTier(Runner, workloads::makeMcf(),
                          "12000:2000:7000:2000", /*Enhanced=*/false));
  Tiers.push_back(runTier(Runner, workloads::makeStress(128, 32, 8),
                          "20000:2000:78000:2000", /*Enhanced=*/false));
  Tiers.push_back(runTier(Runner, workloads::makeStress(256, 32, 8),
                          "20000:2000:78000:2000", /*Enhanced=*/false));

  double MaxErr = 0;
  bool AllOk = R.ChecksumsOk && SkipPairOk;
  for (const TierResult &T : Tiers) {
    MaxErr = std::max(MaxErr, T.maxAbsErrPct());
    AllOk = AllOk && T.ChecksumOk;
  }

  std::printf("{\n"
              "  \"workload\": \"%s\",\n"
              "  \"jobs\": %u,\n"
              "  \"wall_seconds\": %.6f,\n"
              "  \"sim_cycles\": %llu,\n"
              "  \"sim_cycles_per_sec\": %.0f,\n"
              "  \"sim_cycles_per_sec_skip\": %.0f,\n"
              "  \"sim_cycles_per_sec_noskip\": %.0f,\n"
              "  \"skip_speedup\": %.2f,\n"
              "  \"speedupIO\": %.4f,\n"
              "  \"sample_error_pct\": %.2f,\n"
              "  \"checksum_ok\": %s,\n"
              "  \"tiers\": [\n",
              Em3d.Name.c_str(), Pool.numThreads(), WallSeconds,
              static_cast<unsigned long long>(SimCycles), CyclesPerSec,
              RateSkip, RateNoSkip,
              RateNoSkip > 0 ? RateSkip / RateNoSkip : 0, R.speedupIO(),
              MaxErr, AllOk ? "true" : "false");
  for (size_t I = 0; I < Tiers.size(); ++I)
    printTierJson(Tiers[I], I + 1 == Tiers.size());
  std::printf("  ]\n}\n");
  return AllOk ? 0 : 1;
}
