//===- perfbench/bench/main.cpp - The benchmark driver --------------------===//
//
//   perfbench --workload pipeline|adapt-scale|serve --seed N --seconds S
//             --trace 0|1 [--spans FILE] [--record FILE]
//
// --trace 0 (timed run): sets the workload up five times (set-up time is
// their median), then runs whole passes of ops until S seconds have gone,
// untraced, and prints the end-to-end metrics. The host-speed reference
// runs between ops; the time metrics are divided by the run's host factor
// (HostSpeed and Workload::tailTracksHost in Bench.h); the raw values go
// to the `ops (raw):` line.
//
// --trace 1 (traced run): sets the workload up twice, the second time
// with spans, and alternates whole passes for S seconds: each pass runs
// untraced on one set-up, then the same ops run on the other with spans
// and the library's metric registries on. Prints the per-layer metrics;
// the difference between the two halves is the tracing overhead. --spans
// writes the spans as Chrome trace_event JSON.
//
// --record FILE holds the counts that must repeat exactly for this seed
// and this build: the first run writes it, every later run compares and
// counts any drift as a failed op.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//===----------------------------------------------------------------------===//

#include "bench/Bench.h"

#include "obs/Registry.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string SpansPath, RecordPath;
};

bool parseArgs(int argc, char **argv, Args &A) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return false;
    std::string V = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = !V.empty() && *End == '\0';
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = !V.empty() && *End == '\0' && A.Seconds > 0 &&
                    A.Seconds <= 600;
    } else if (Flag == "--trace") {
      HaveTrace = V == "0" || V == "1";
      A.Trace = V == "1";
    } else if (Flag == "--spans") {
      A.SpansPath = V;
    } else if (Flag == "--record") {
      A.RecordPath = V;
    } else {
      return false;
    }
  }
  return (A.Workload == "pipeline" || A.Workload == "adapt-scale" ||
          A.Workload == "serve") &&
         HaveSeed && HaveSeconds && HaveTrace;
}

unsigned hostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<Workload> makeWorkload(const Args &A,
                                       SpanRecorder *Spans = nullptr) {
  if (A.Workload == "pipeline")
    return makePipeline(A.Seed, Spans);
  if (A.Workload == "adapt-scale")
    return makeAdaptScale(A.Seed, Spans);
  return makeServe(A.Seed, defaultServeSetup(std::min(hostThreads(), 2u)),
                   Spans);
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Runs whole passes from the start of the sequence until \p Seconds have
/// passed (at least one pass), sampling the host's speed between ops;
/// returns the ops.
std::vector<OpResult> runPasses(Workload &W, double Seconds, OpLedger &L,
                                HostSpeed &H) {
  std::vector<OpResult> Ops;
  auto Start = std::chrono::steady_clock::now();
  uint64_t Seq = 0;
  do {
    for (size_t I = 0; I < W.passLength(); ++I, ++Seq) {
      Ops.push_back(W.runOp(Seq, nullptr));
      L.record(Ops.back());
      H.maybeSample();
    }
  } while (msSince(Start) < Seconds * 1000.0);
  return Ops;
}

/// The registry values the per-layer metrics read, taken right after
/// restart() so that work done while restarting is left out.
std::map<std::string, double> snapshot(const ssp::obs::Registry &R) {
  std::map<std::string, double> S;
  for (const char *C : {"adapt.runs", "adapt.delinquent_loads",
                        "adapt.slices", "adapt.triggers_inserted",
                        "adapt.verify_errors", "serve.batches",
                        "serve.warm_hits", "serve.warm_builds"})
    S[C] = static_cast<double>(R.counter(C));
  for (const auto &[Name, Unit] : layerMetricNames())
    if (Name.rfind("_ms") == Name.size() - 3)
      S[Name] = R.timeMs(Name);
  return S;
}

/// The traced run. \p Plain and \p W are two set-ups of the same workload,
/// \p W's recorded in \p Spans: each pass runs untraced on \p Plain, then
/// the same ops run on \p W with spans and the library registries on.
/// Alternating pass by pass exposes both halves to the same host
/// conditions, so their difference is the tracing overhead.
void traceMetrics(Workload &Plain, Workload &W, SpanRecorder &Spans,
                  const Args &A, OpLedger &L, MetricMap &M) {
  for (const auto &[Name, Unit] : layerMetricNames())
    M[Name] = Metric{0.0, Unit};

  ssp::obs::Registry Reg;
  Plain.restart(nullptr);
  W.restart(&Reg);
  std::map<std::string, double> Base = snapshot(Reg);
  HostSpeed H;
  double PlainMs = 0, TracedMs = 0;
  std::vector<OpResult> Traced;
  auto Start = std::chrono::steady_clock::now();
  uint64_t Seq = 0;
  do {
    for (size_t I = 0; I < Plain.passLength(); ++I) {
      OpResult R = Plain.runOp(Seq + I, nullptr);
      L.record(R);
      PlainMs += R.Ms;
      H.maybeSample();
    }
    for (size_t I = 0; I < W.passLength(); ++I) {
      Spans.setOp(Seq + I);
      OpResult R;
      {
        SpanScope S(&Spans, "bench.op");
        R = W.runOp(Seq + I, &Spans);
      }
      L.record(R);
      TracedMs += R.Ms;
      Traced.push_back(R);
      H.maybeSample();
    }
    Seq += W.passLength();
  } while (msSince(Start) < A.Seconds * 1000.0);
  size_t Ops = Traced.size();

  double N = static_cast<double>(Ops);
  M["obs.trace_overhead_pct"].Value = (TracedMs - PlainMs) / PlainMs * 100.0;
  M["op_count"].Value = N;
  M["op_tail_pct"].Value = tailOf(Traced).Percentile;
  M["host.ref_ms"].Value = median(H.samples());

  // Host time of the benchmark's calls into each layer, per op.
  for (const char *Span :
       {"sim.base_io", "sim.ssp_io", "sim.base_ooo", "sim.ssp_ooo",
        "workloads.build", "workloads.memimage", "ir.link", "profile.run",
        "core.adapt"})
    M[std::string(Span) + "_ms"].Value = Spans.totalMs(Span) / N;

  // The library's own registries: per adapt() call and per served batch.
  std::map<std::string, double> Now = snapshot(Reg);
  auto Delta = [&](const std::string &K) { return Now[K] - Base[K]; };
  double Adapts = Delta("adapt.runs"), Batches = Delta("serve.batches");
  for (const auto &[Name, Unit] : layerMetricNames()) {
    bool Timer = Name.rfind("_ms") == Name.size() - 3;
    if (Timer && (Name.rfind("adapt.", 0) == 0 ||
                  Name.rfind("verify.", 0) == 0) && Adapts > 0)
      M[Name].Value = Delta(Name) / Adapts;
    if (Timer && Name.rfind("serve.", 0) == 0 && Batches > 0)
      M[Name].Value = Delta(Name) / Batches;
  }
  for (const char *C :
       {"adapt.delinquent_loads", "adapt.slices", "adapt.triggers_inserted"})
    if (Adapts > 0)
      M[C].Value = Delta(C) / Adapts;
  M["adapt.verify_errors"].Value = Delta("adapt.verify_errors");
  for (const char *C : {"serve.warm_hits", "serve.warm_builds"})
    M[C].Value = Delta(C) * 1000.0 / N;

  // Self time per layer, per op. Verify runs inside adapt(): its registry
  // time moves from the core layer to its own.
  std::map<std::string, double> Self = Spans.selfMsByLayer();
  double VerifyMs = Delta("adapt.verify_ms");
  Self["core"] -= VerifyMs;
  Self["verify"] += VerifyMs;
  for (const char *Layer :
       {"bench", "workloads", "profile", "ir", "core", "verify", "sim"})
    M[std::string("self.") + Layer + "_ms"].Value = Self[Layer] / N;
  // The set-up's registry is off, so its verify time stays in core.
  std::map<std::string, double> Setup = Spans.selfMsByLayer(true);
  for (const char *Layer : {"bench", "workloads", "profile", "ir", "core",
                            "sim"})
    M[std::string("setup.") + Layer + "_ms"].Value = Setup[Layer];

  W.layerMetrics(M, Ops, Spans);

  std::fprintf(stderr, "self time per op (ms):");
  for (const auto &[Layer, Ms] : Self)
    std::fprintf(stderr, " %s=%.4f", Layer.c_str(), Ms / N);
  std::fprintf(stderr, "\nself time of the set-up (ms):");
  for (const auto &[Layer, Ms] : Setup)
    std::fprintf(stderr, " %s=%.4f", Layer.c_str(), Ms);
  std::fprintf(stderr, "\n");
  if (!A.SpansPath.empty() && !Spans.writeTrace(A.SpansPath))
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 A.SpansPath.c_str());
}

void printResult(const OpLedger &L, const MetricMap &M) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              L.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(L.attempted()),
              static_cast<unsigned long long>(L.failed()));
  bool First = true;
  for (const auto &[Name, Met] : M) {
    double V = std::isfinite(Met.Value) ? Met.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), formatDouble(V).c_str(),
                Met.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  if (!parseArgs(argc, argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload pipeline|adapt-scale|serve --seed N "
                 "--seconds S --trace 0|1 [--spans FILE] [--record FILE]\n",
                 argv[0]);
    return 2;
  }
  std::printf("host: nproc=%u compiler=%s build=%s asserts=%s\n",
              hostThreads(),
#ifdef __clang__
              "clang " __clang_version__,
#else
              "gcc " __VERSION__,
#endif
              PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
              "off"
#else
              "on"
#endif
  );
  std::fflush(stdout);

  OpLedger L;
  MetricMap M;
  std::unique_ptr<Workload> W;
  if (A.Trace) {
    std::unique_ptr<Workload> Plain = makeWorkload(A);
    SpanRecorder Spans;
    Spans.setOp(SpanRecorder::SetupOp);
    {
      SpanScope S(&Spans, "bench.setup");
      W = makeWorkload(A, &Spans);
    }
    traceMetrics(*Plain, *W, Spans, A, L, M);
  } else {
    HostSpeed H;
    std::vector<double> SetupS;
    for (int I = 0; I < 5; ++I) {
      W.reset();
      auto Start = std::chrono::steady_clock::now();
      W = makeWorkload(A);
      SetupS.push_back(msSince(Start) / 1000.0);
      H.sample();
    }
    W->restart(nullptr);
    std::vector<OpResult> Ops = runPasses(*W, A.Seconds, L, H);
    double OpMs = 0;
    for (const OpResult &R : Ops)
      OpMs += R.Ms;
    Tail T = tailOf(Ops);
    double OpsPerS = static_cast<double>(Ops.size()) / (OpMs / 1000.0);
    double P50 = medianLatency(Ops), F = H.factor();
    M["setup_s"] = {median(SetupS) / F, "s"};
    M["ops_per_s"] = {OpsPerS * F, "1/s"};
    M["op_p50_ms"] = {P50 / F, "ms"};
    M["op_tail_ms"] = {W->tailTracksHost() ? T.Value / F : T.Value, "ms"};
    M["peak_rss_mb"] = {peakRssMb(), "MB"};
    std::printf("host speed: reference %.4f ms (median of %zu), "
                "factor %.4f\n",
                median(H.samples()), H.samples().size(), F);
    std::printf("ops (raw): n=%zu setup=%.4f s ops_per_s=%.4f p50=%.4f ms "
                "tail=%.4f ms (input %zu, p%.2f of its %zu runs, %zu "
                "beyond)\n",
                Ops.size(), median(SetupS), OpsPerS, P50, T.Value, T.Input,
                T.Percentile, T.N, T.Beyond);
  }
  guardCounts(W->counts(), A.RecordPath, L);
  for (const std::string &Why : L.reasons())
    std::fprintf(stderr, "failed: %s\n", Why.c_str());
  std::fprintf(stderr, "fail_share=%s (%llu of %llu ops)\n",
               formatDouble(L.failShare()).c_str(),
               static_cast<unsigned long long>(L.failed()),
               static_cast<unsigned long long>(L.attempted()));
  if (!A.Trace)
    M["ok_share"] = {1.0 - L.failShare(), "share"};
  printResult(L, M);
  return 0;
}
