//===- bench/bench_tool_micro.cpp - tool-component microbenchmarks ---------===//
//
// google-benchmark microbenchmarks of the post-pass tool's components:
// analysis construction, slicing, scheduling, full adaptation, and raw
// simulator throughput. These measure the *tool*, not the simulated
// machine — useful when modifying the analyses.
//
// Two modes:
//
//   bench_tool_micro [google-benchmark flags]   interactive microbenchmarks
//   bench_tool_micro --out FILE [--jobs N]      JSON stage report: per-stage
//       (analysis/slice/sched/full-adapt) wall times on mcf and a stress
//       program, adaptations per second, and the serial-vs-parallel
//       full-adaptation ratio at N jobs. Driven by the `bench-tool` CMake
//       target, which writes BENCH_tool.json.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/RegionGraph.h"
#include "core/AnalysisCache.h"
#include "core/PostPassTool.h"
#include "harness/Experiment.h"
#include "obs/Registry.h"
#include "support/Args.h"
#include "sched/Scheduler.h"
#include "slicer/Slicer.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace ssp;

namespace {

/// Shared fixture data: the mcf workload, built and profiled once.
struct McfFixture {
  workloads::Workload W = workloads::makeMcf();
  ir::Program P = W.Build();
  profile::ProfileData PD = core::profileProgram(P, W.BuildMemory);
};

McfFixture &fixture() {
  static McfFixture F;
  return F;
}

void BM_AnalysisConstruction(benchmark::State &State) {
  McfFixture &F = fixture();
  for (auto _ : State) {
    analysis::ProgramDeps Deps(F.P);
    for (uint32_t FI = 0; FI < F.P.numFuncs(); ++FI)
      benchmark::DoNotOptimize(&Deps.forFunction(FI));
  }
}
BENCHMARK(BM_AnalysisConstruction);

void BM_SliceComputation(benchmark::State &State) {
  McfFixture &F = fixture();
  analysis::ProgramDeps Deps(F.P);
  analysis::RegionGraph RG = analysis::RegionGraph::build(Deps);
  analysis::CallGraph CG = analysis::CallGraph::build(
      F.P, F.PD.IndirectTargets, F.PD.CallSiteCounts);
  std::vector<profile::DelinquentLoad> DL =
      profile::selectDelinquentLoads(F.P, F.PD);
  slicer::Slicer S(Deps, RG, CG, F.PD);
  int Region = RG.innermostRegionOf(DL.front().Ref, Deps);
  for (auto _ : State) {
    slicer::Slice Slice = S.computeSlice(DL.front().Ref, Region);
    benchmark::DoNotOptimize(Slice.Insts.size());
  }
}
BENCHMARK(BM_SliceComputation);

void BM_SliceScheduling(benchmark::State &State) {
  McfFixture &F = fixture();
  analysis::ProgramDeps Deps(F.P);
  analysis::RegionGraph RG = analysis::RegionGraph::build(Deps);
  analysis::CallGraph CG = analysis::CallGraph::build(
      F.P, F.PD.IndirectTargets, F.PD.CallSiteCounts);
  std::vector<profile::DelinquentLoad> DL =
      profile::selectDelinquentLoads(F.P, F.PD);
  slicer::Slicer S(Deps, RG, CG, F.PD);
  int Region = RG.innermostRegionOf(DL.front().Ref, Deps);
  slicer::Slice Slice = S.computeSlice(DL.front().Ref, Region);
  sched::SliceScheduler Sched(Deps, RG, F.PD);
  for (auto _ : State) {
    sched::ScheduledSlice SS =
        Sched.schedule(Slice, sched::SPModel::Chaining);
    benchmark::DoNotOptimize(SS.SlackPerIteration);
  }
}
BENCHMARK(BM_SliceScheduling);

void BM_FullAdaptation(benchmark::State &State) {
  McfFixture &F = fixture();
  for (auto _ : State) {
    core::PostPassTool Tool(F.P, F.PD);
    ir::Program E = Tool.adapt();
    benchmark::DoNotOptimize(E.numInsts());
  }
}
BENCHMARK(BM_FullAdaptation);

/// The same two hot paths on a stress program (32 funcs x 8 blocks x 2
/// delinquent loads per block) ~50x larger than the paper kernels.
struct StressFixture {
  workloads::Workload W = workloads::makeStress(32, 8, 2);
  ir::Program P = W.Build();
  profile::ProfileData PD = core::profileProgram(P, W.BuildMemory);
};

StressFixture &stressFixture() {
  static StressFixture F;
  return F;
}

void BM_SliceComputationStress(benchmark::State &State) {
  StressFixture &F = stressFixture();
  core::AnalysisCache AC(F.P, F.PD, slicer::SliceOptions(),
                         sched::ScheduleOptions());
  std::vector<profile::DelinquentLoad> DL =
      profile::selectDelinquentLoads(F.P, F.PD);
  slicer::Slicer S = AC.makeSlicer();
  int Region = AC.regions().innermostRegionOf(DL.front().Ref, AC.deps());
  for (auto _ : State) {
    slicer::Slice Slice = S.computeSlice(DL.front().Ref, Region);
    benchmark::DoNotOptimize(Slice.Insts.size());
  }
}
BENCHMARK(BM_SliceComputationStress);

void BM_FullAdaptationStress(benchmark::State &State) {
  StressFixture &F = stressFixture();
  for (auto _ : State) {
    core::PostPassTool Tool(F.P, F.PD);
    ir::Program E = Tool.adapt();
    benchmark::DoNotOptimize(E.numInsts());
  }
}
BENCHMARK(BM_FullAdaptationStress);

void BM_SimulatorThroughput(benchmark::State &State) {
  workloads::Workload W = workloads::makeArcKernel(200, 1 << 12);
  ir::Program P = W.Build();
  ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  uint64_t Cycles = 0, TotalCycles = 0;
  for (auto _ : State) {
    mem::SimMemory Mem;
    W.BuildMemory(Mem);
    sim::Simulator Sim(sim::MachineConfig::inOrder(), LP, Mem);
    Cycles = Sim.run().Cycles;
    TotalCycles += Cycles;
    benchmark::DoNotOptimize(Cycles);
  }
  State.counters["sim_cycles_per_run"] = static_cast<double>(Cycles);
  // Simulator throughput: simulated cycles retired per wall-clock second.
  State.counters["sim_cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(TotalCycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput);

//===----------------------------------------------------------------------===//
// JSON stage report (the `bench-tool` target).
//===----------------------------------------------------------------------===//

/// Best-of-\p Reps wall time of \p Fn in milliseconds (best-of filters
/// scheduler noise on shared CI hosts).
template <typename Fn> double bestOfMs(unsigned Reps, Fn &&F) {
  double Best = 1e300;
  for (unsigned R = 0; R < Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    F();
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    if (Ms < Best)
      Best = Ms;
  }
  return Best;
}

struct StageTimes {
  double AnalysisMs = 0;   ///< AnalysisCache construction (deps, regions,
                           ///< call graph, summaries, call costs).
  double SliceMs = 0;      ///< One slice of the hottest delinquent load.
  double SchedMs = 0;      ///< One chaining schedule of that slice.
  double AdaptMs = 0;      ///< Full PostPassTool::adapt, Jobs = 1.
  double AdaptParallelMs = 0; ///< Full adapt at the requested job count.
};

StageTimes measureStages(const workloads::Workload &W, unsigned Jobs) {
  StageTimes T;
  ir::Program P = W.Build();
  profile::ProfileData PD = core::profileProgram(P, W.BuildMemory);

  slicer::SliceOptions SO;
  sched::ScheduleOptions SchO;
  T.AnalysisMs = bestOfMs(3, [&] {
    core::AnalysisCache AC(P, PD, SO, SchO);
    benchmark::DoNotOptimize(&AC.deps());
  });

  core::AnalysisCache AC(P, PD, SO, SchO);
  std::vector<profile::DelinquentLoad> DL =
      profile::selectDelinquentLoads(P, PD);
  if (!DL.empty()) {
    slicer::Slicer S = AC.makeSlicer();
    int Region = AC.regions().innermostRegionOf(DL.front().Ref, AC.deps());
    slicer::Slice Slice;
    T.SliceMs = bestOfMs(5, [&] {
      Slice = S.computeSlice(DL.front().Ref, Region);
      benchmark::DoNotOptimize(Slice.Insts.size());
    });
    if (Slice.Valid) {
      sched::SliceScheduler Sched = AC.makeScheduler();
      T.SchedMs = bestOfMs(5, [&] {
        sched::ScheduledSlice SS =
            Sched.schedule(Slice, sched::SPModel::Chaining);
        benchmark::DoNotOptimize(SS.SlackPerIteration);
      });
    }
  }

  auto TimeAdapt = [&](unsigned JobCount) {
    return bestOfMs(3, [&] {
      core::ToolOptions Opts;
      Opts.Jobs = JobCount;
      core::PostPassTool Tool(P, PD, Opts);
      ir::Program E = Tool.adapt();
      benchmark::DoNotOptimize(E.numInsts());
    });
  };
  T.AdaptMs = TimeAdapt(1);
  T.AdaptParallelMs = TimeAdapt(Jobs);
  return T;
}

void printStages(std::FILE *F, const char *Name, const StageTimes &T,
                 bool TrailingComma) {
  std::fprintf(F,
               "  \"%s\": {\n"
               "    \"analysis_ms\": %.4f,\n"
               "    \"slice_ms\": %.4f,\n"
               "    \"sched_ms\": %.4f,\n"
               "    \"full_adapt_ms\": %.4f,\n"
               "    \"full_adapt_parallel_ms\": %.4f,\n"
               "    \"adaptations_per_sec\": %.2f,\n"
               "    \"serial_over_parallel\": %.3f\n"
               "  }%s\n",
               Name, T.AnalysisMs, T.SliceMs, T.SchedMs, T.AdaptMs,
               T.AdaptParallelMs, T.AdaptMs > 0 ? 1000.0 / T.AdaptMs : 0.0,
               T.AdaptParallelMs > 0 ? T.AdaptMs / T.AdaptParallelMs : 0.0,
               TrailingComma ? "," : "");
}

/// One instrumented adaptation of mcf through the obs registry: the
/// tool's own per-stage wall times and counters, reported alongside the
/// external best-of timings above (run separately so the metric overhead
/// never lands inside a timed best-of iteration).
std::string collectToolMetrics() {
  workloads::Workload W = workloads::makeMcf();
  ir::Program P = W.Build();
  profile::ProfileData PD = core::profileProgram(P, W.BuildMemory);
  obs::Registry Reg;
  core::ToolOptions Opts;
  Opts.Metrics = &Reg;
  core::PostPassTool Tool(P, PD, Opts);
  ir::Program E = Tool.adapt();
  benchmark::DoNotOptimize(E.numInsts());
  std::string Json = Reg.renderJSON();
  // Trim the trailing newline so the value embeds cleanly.
  while (!Json.empty() && Json.back() == '\n')
    Json.pop_back();
  // Re-indent the nested object two extra spaces for the enclosing doc.
  std::string Out;
  for (char C : Json) {
    Out += C;
    if (C == '\n')
      Out += "  ";
  }
  return Out;
}

int jsonMain(const char *OutPath, unsigned Jobs) {
  StageTimes Mcf = measureStages(workloads::makeMcf(), Jobs);
  StageTimes Stress =
      measureStages(workloads::makeStress(32, 8, 2), Jobs);
  std::string ToolMetrics = collectToolMetrics();

  std::FILE *F = std::fopen(OutPath, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath);
    return 1;
  }
  double TotalAdaptMs = Mcf.AdaptMs + Stress.AdaptMs;
  for (std::FILE *Out : {F, stdout}) {
    std::fprintf(Out, "{\n  \"jobs\": %u,\n", Jobs);
    // Headline rate: serial full adaptations per second over both programs.
    std::fprintf(Out, "  \"adaptations_per_sec\": %.2f,\n",
                 TotalAdaptMs > 0 ? 2000.0 / TotalAdaptMs : 0.0);
    printStages(Out, "mcf", Mcf, /*TrailingComma=*/true);
    printStages(Out, "stress_32x8x2", Stress, /*TrailingComma=*/true);
    std::fprintf(Out, "  \"tool_metrics_mcf\": %s\n", ToolMetrics.c_str());
    std::fprintf(Out, "}\n");
  }
  std::fclose(F);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // Scan-style parsing (not the strict FlagParser): google-benchmark's
  // own --benchmark_* flags must pass through to Initialize below.
  const char *OutPath = nullptr;
  uint64_t Jobs = 0;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc)
      OutPath = argv[++I];
    else if (std::strcmp(argv[I], "--jobs") == 0 &&
             !support::parseUnsignedFlag(argc, argv, I, 0, 512, Jobs))
      return 1;
  }
  if (Jobs == 0)
    Jobs = std::max(1u, std::thread::hardware_concurrency());
  if (OutPath)
    return jsonMain(OutPath, static_cast<unsigned>(Jobs));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
