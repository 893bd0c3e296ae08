//===- perfbench/bench/Stats.cpp - Statistics and result bookkeeping ------===//

#include "bench/Bench.h"

#include "support/RNG.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

using namespace perfbench;

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double perfbench::medianLatency(const std::vector<OpResult> &Ops) {
  std::map<size_t, std::vector<double>> ByInput;
  for (const OpResult &R : Ops)
    ByInput[R.Input].push_back(R.Ms);
  std::vector<double> Medians;
  for (auto &[Input, Ms] : ByInput)
    Medians.push_back(median(std::move(Ms)));
  return median(std::move(Medians));
}

Tail perfbench::tailOf(const std::vector<OpResult> &Ops) {
  std::map<size_t, std::vector<double>> ByInput;
  for (const OpResult &R : Ops)
    ByInput[R.Input].push_back(R.Ms);
  Tail Worst;
  for (auto &[Input, V] : ByInput) {
    std::sort(V.begin(), V.end());
    Tail T;
    T.Input = Input;
    T.N = V.size();
    if (T.N > 20) {
      size_t Idx = T.N - 11;
      T.Value = V[Idx];
      T.Beyond = 10;
      T.Percentile = 100.0 * static_cast<double>(Idx + 1) /
                     static_cast<double>(T.N);
    } else {
      T.Value = median(V);
      T.Beyond = T.N / 2;
      T.Percentile = 50.0;
    }
    if (Worst.N == 0 || T.Value > Worst.Value)
      Worst = T;
  }
  return Worst;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return std::numeric_limits<double>::quiet_NaN();
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

std::string perfbench::formatDouble(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "nan";
}

std::vector<size_t> perfbench::passOrder(uint64_t Seed, uint64_t Pass,
                                         size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  ssp::RNG R(Seed * 0x9E3779B97F4A7C15ULL + Pass);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

void OpLedger::record(const OpResult &R) {
  ++Attempted;
  if (!R.Error.empty())
    fail(R.Error);
}

void OpLedger::fail(const std::string &Why) {
  ++Failed;
  if (Reasons.size() < 8)
    Reasons.push_back(Why);
}

void perfbench::guardCounts(const CountMap &C, const std::string &Path,
                            OpLedger &L) {
  if (Path.empty())
    return;
  std::ifstream In(Path);
  if (!In) {
    std::string Tmp = Path + ".tmp";
    {
      std::ofstream Out(Tmp);
      for (const auto &[K, V] : C)
        Out << K << " " << V << "\n";
    }
    std::rename(Tmp.c_str(), Path.c_str());
    return;
  }
  CountMap Old;
  std::string Key, Value;
  while (In >> Key >> Value)
    Old[Key] = Value;
  if (Old == C)
    return;
  std::string Why = "determinism: counts differ from an earlier run:";
  for (const auto &[K, V] : C)
    if (!Old.count(K) || Old[K] != V)
      Why += " " + K + "=" + V + " (was " +
             (Old.count(K) ? Old[K] : std::string("absent")) + ")";
  L.fail(Why);
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      // sim, host time (pipeline).
      {"sim.base_io_ms", "ms"},
      {"sim.ssp_io_ms", "ms"},
      {"sim.base_ooo_ms", "ms"},
      {"sim.ssp_ooo_ms", "ms"},
      {"sim.ns_per_cycle_io", "ns"},
      {"sim.ns_per_cycle_ooo", "ns"},
      {"sim.skipped_cycle_share", "share"},
      {"sim.skip_events", "count"},
      {"sim_minst_per_s", "Minst/s"},
      // sim, modelled (pipeline; one pass over the suite).
      {"sim.cycles", "count"},
      {"sim.main_insts", "count"},
      {"sim.spec_insts", "count"},
      {"sim.cat_cycles.l3", "count"},
      {"sim.cat_cycles.l2", "count"},
      {"sim.cat_cycles.l1", "count"},
      {"sim.cat_cycles.cache_exec", "count"},
      {"sim.cat_cycles.exec", "count"},
      {"sim.cat_cycles.other", "count"},
      {"sim.triggers_fired", "count"},
      {"sim.trigger_ignored_share", "share"},
      {"sim.spawn_dropped_share", "share"},
      {"sim.prefetch_useful_share", "share"},
      {"sim.stream_activations", "count"},
      {"speedup_io_gmean", "x"},
      {"speedup_ooo_gmean", "x"},
      // cache, branch.
      {"cache.accesses", "count"},
      {"cache.mem_share", "share"},
      {"cache.fill_buffer_stall_cycles", "count"},
      {"cache.tlb_misses", "count"},
      {"branch.mispredict_share", "share"},
      // workloads, ir, profile.
      {"workloads.build_ms", "ms"},
      {"workloads.memimage_ms", "ms"},
      {"ir.link_ms", "ms"},
      {"profile.run_ms", "ms"},
      // core tool.
      {"core.adapt_ms", "ms"},
      {"core.output_bytes", "bytes"},
      {"adapt.analysis_ms", "ms"},
      {"adapt.candidates_ms", "ms"},
      {"adapt.combine_ms", "ms"},
      {"adapt.triggers_ms", "ms"},
      {"adapt.rewrite_ms", "ms"},
      {"adapt.delinquent_loads", "count"},
      {"adapt.slices", "count"},
      {"adapt.triggers_inserted", "count"},
      // verify.
      {"adapt.verify_ms", "ms"},
      {"verify.structural_ms", "ms"},
      {"verify.translation_ms", "ms"},
      {"verify.stub-contract_ms", "ms"},
      {"verify.slice-dataflow_ms", "ms"},
      {"verify.lint_ms", "ms"},
      {"verify.speculation_ms", "ms"},
      {"verify.feedback_ms", "ms"},
      {"verify.stream_ms", "ms"},
      {"adapt.verify_errors", "count"},
      // core serve.
      {"serve.lookup_ms", "ms"},
      {"serve.analysis_ms", "ms"},
      {"serve.adapt_ms", "ms"},
      {"serve.respond_ms", "ms"},
      {"serve.hit_share", "share"},
      {"serve.cache_evictions", "1/kreq"},
      {"serve.warm_hits", "1/kreq"},
      {"serve.warm_builds", "1/kreq"},
      // obs and the per-layer self times of the traced run.
      {"obs.trace_overhead_pct", "%"},
      {"self.bench_ms", "ms"},
      {"self.workloads_ms", "ms"},
      {"self.profile_ms", "ms"},
      {"self.ir_ms", "ms"},
      {"self.core_ms", "ms"},
      {"self.verify_ms", "ms"},
      {"self.sim_ms", "ms"},
      // Self time per layer in one set-up of the workload.
      {"setup.bench_ms", "ms"},
      {"setup.workloads_ms", "ms"},
      {"setup.profile_ms", "ms"},
      {"setup.ir_ms", "ms"},
      {"setup.core_ms", "ms"},
      {"setup.sim_ms", "ms"},
      {"op_count", "count"},
      {"op_tail_pct", "%"},
      {"host.ref_ms", "ms"},
  };
  return Names;
}
