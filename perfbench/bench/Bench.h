//===- perfbench/bench/Bench.h - The repository benchmark -----------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark binary: the statistics every workload
/// reports (median, the tail rule, geomean), the host-speed reference the
/// timed metrics are scaled by, the in-memory span recorder of the traced
/// run, and the interface the three workloads implement.
/// README.md in this directory says why each workload exists and which
/// metric each layer should move.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "workloads/Workload.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ssp::obs {
class Registry;
}

namespace perfbench {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> V);

/// Geometric mean; NaN when \p V is empty or holds a non-positive value.
double geomean(const std::vector<double> &V);

/// Shortest text that reads back as exactly \p V.
std::string formatDouble(double V);

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// Steps of the reference program one hostRefMs() call runs.
constexpr unsigned HostRefSteps = 100000;
/// The reference's time at the host speed the timed metrics are scaled
/// to: about its median on the 4-vCPU Xeon VM the benchmark was tuned on,
/// where run medians ranged from 2.2 to 2.9 ms.
constexpr double HostRefNominalMs = 2.5;

/// Runs the host-speed reference once (HostRefSteps steps of a small fixed
/// interpreter with a cache-tag model over 4 MiB, independent of the ssp
/// libraries) and returns its wall time in milliseconds.
double hostRefMs();

/// Samples the reference between ops throughout a run. factor() is how
/// much slower the host ran than nominal (the median sample over
/// HostRefNominalMs); dividing a run's times by it removes the drift of a
/// shared host's speed from run to run, which the reference sees as much
/// as the workloads do.
class HostSpeed {
public:
  /// Takes a first sample; maybeSample() takes another once \p EveryMs
  /// have passed since the last one.
  explicit HostSpeed(double EveryMs = 100.0);
  void sample();
  void maybeSample();
  double factor() const;
  const std::vector<double> &samples() const { return Samples; }

private:
  double EveryMs;
  std::vector<double> Samples;
  std::chrono::steady_clock::time_point Last;
};

//===----------------------------------------------------------------------===//
// Metrics and results
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counts that must repeat exactly for a given seed, rendered as text so
/// that a comparison across runs is exact.
using CountMap = std::map<std::string, std::string>;

/// One executed op: its latency, which input of the pass it ran and, when
/// a check failed, why.
struct OpResult {
  double Ms = 0;
  std::string Error;
  size_t Input = 0;
};

/// The median op latency the benchmark reports: the median over a pass's
/// inputs of each input's median latency. Every pass holds each input
/// once, so this is the pooled median, except that it cannot jump across
/// the gap between two inputs of very different cost when host noise
/// reorders their runs. With a single input it is the plain median.
double medianLatency(const std::vector<OpResult> &Ops);

/// The tail latency the benchmark reports, taken per input so that it
/// never jumps from one input to another as the number of passes changes.
/// For each input: the highest percentile of its runs that still has ten
/// runs beyond it (the run with exactly ten slower ones), or its median
/// when it has fewer than 21 runs and that percentile would fall below
/// the median. The two agree at 21 runs, so the value moves smoothly with
/// the run length. The tail is the largest of these over the inputs; with
/// a single input it is the plain ten-beyond rule.
struct Tail {
  double Value = 0;
  double Percentile = 0; ///< Of the chosen input's runs.
  size_t Beyond = 0;     ///< Runs of that input above the reported one.
  size_t N = 0;          ///< Runs of that input.
  size_t Input = 0;
};
Tail tailOf(const std::vector<OpResult> &Ops);

/// Attempted/failed bookkeeping of one run; the first few failure reasons
/// are kept for the log.
class OpLedger {
public:
  void record(const OpResult &R);
  void fail(const std::string &Why);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  double failShare() const {
    return Attempted ? static_cast<double>(Failed) / Attempted : 0.0;
  }
  const std::vector<std::string> &reasons() const { return Reasons; }

private:
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Reasons;
};

/// The determinism guard: compares \p C with the counts an earlier run
/// recorded in \p Path and fails one op in \p L on any drift; records
/// \p C when there is no earlier run. An empty path disables it.
void guardCounts(const CountMap &C, const std::string &Path, OpLedger &L);

//===----------------------------------------------------------------------===//
// Spans (traced run only)
//===----------------------------------------------------------------------===//

/// In-memory spans around the benchmark's calls into each layer. A span's
/// name is "<layer>.<call>"; its parent is the span open when it started,
/// and every span carries the id of the op it belongs to, or SetupOp for
/// spans recorded while the workload is set up.
class SpanRecorder {
public:
  static constexpr uint64_t SetupOp = ~0ull;

  struct Span {
    std::string Name;
    double StartUs = 0, EndUs = 0;
    int Parent = -1;
    uint64_t Op = 0;
  };

  void setOp(uint64_t Op) { CurOp = Op; }
  int open(std::string Name);
  void close(int Id);

  const std::vector<Span> &spans() const { return Spans; }
  /// Total duration of the op spans named \p Name, in milliseconds.
  double totalMs(const std::string &Name) const;
  /// Self time per layer: each span's duration minus the part its child
  /// spans cover, summed by layer (the name up to the first '.'). Covers
  /// the op spans, or the set-up spans when \p Setup is true.
  std::map<std::string, double> selfMsByLayer(bool Setup = false) const;
  /// Writes the spans as Chrome trace_event JSON; false on I/O failure.
  bool writeTrace(const std::string &Path) const;

private:
  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint64_t CurOp = 0;
};

/// Opens a span for its scope; a null recorder makes it a no-op.
class SpanScope {
public:
  SpanScope(SpanRecorder *R, const char *Name)
      : R(R), Id(R ? R->open(Name) : -1) {}
  ~SpanScope() {
    if (R)
      R->close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanRecorder *R;
  int Id;
};

/// Milliseconds elapsed since \p Start.
inline double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One benchmark workload. Constructing it is the set-up (inputs generated
/// from the seed, profiles, warm-up); runOp is the timed unit of work. The
/// factories below take an optional recorder that gets spans around the
/// set-up's calls into the layers.
class Workload {
public:
  virtual ~Workload() = default;

  /// Ops in one pass. Runs execute whole passes, so every pass has the
  /// same mix of inputs whatever the run length.
  virtual size_t passLength() const = 0;

  /// Starts the op sequence afresh: cumulative tallies cleared and, for
  /// serving, a new service with empty caches. \p Metrics (may be null)
  /// is the registry the library reports into from now on.
  virtual void restart(ssp::obs::Registry *Metrics) = 0;

  /// Runs op \p Seq of the sequence, checks its output, and returns the
  /// latency of the library calls alone (checks excluded). \p Spans is
  /// null in timed runs.
  virtual OpResult runOp(uint64_t Seq, SpanRecorder *Spans) = 0;

  /// Counts that must repeat exactly for this seed, over the first pass
  /// since the last restart().
  virtual CountMap counts() const = 0;

  /// Per-layer metrics of the traced run: \p Ops ops ran since restart()
  /// with \p Spans attached.
  /// Whether op_tail_ms is scaled by the host factor. The other time
  /// metrics always are. The tail op of `adapt-scale` and `serve` is an
  /// adaptation of a large stress program, which slows down far less than
  /// the reference when the host is loaded, so scaling it would add the
  /// reference's drift instead of removing the host's (README.md, "Host
  /// speed"); `pipeline`'s tail is a simulation, which tracks it.
  virtual bool tailTracksHost() const { return false; }

  virtual void layerMetrics(MetricMap &M, size_t Ops,
                            const SpanRecorder &Spans) const = 0;
};

/// The order of the \p N inputs in pass \p Pass: a seeded permutation, so
/// the seed changes the order but never the mix of a pass.
std::vector<size_t> passOrder(uint64_t Seed, uint64_t Pass, size_t N);

/// One program of the `pipeline` workload.
struct PipelineProgram {
  ssp::workloads::Workload W;
  bool Streams = false; ///< Adapt with ToolOptions::EnableStreams.
};

/// `pipeline` over fullSuite(), the stream programs adapted with streams.
std::unique_ptr<Workload> makePipeline(uint64_t Seed,
                                       SpanRecorder *Spans = nullptr);
/// `pipeline` over \p Programs (tests pass small or broken ones).
std::unique_ptr<Workload> makePipeline(uint64_t Seed,
                                       std::vector<PipelineProgram> Programs,
                                       SpanRecorder *Spans = nullptr);

/// `adapt-scale`: the paper programs plus seeded stress shapes.
std::unique_ptr<Workload> makeAdaptScale(uint64_t Seed,
                                         SpanRecorder *Spans = nullptr);

/// The corpus and service settings of the `serve` workload.
struct ServeSetup {
  std::vector<ssp::workloads::Workload> Corpus;
  /// Pool threads of the service.
  unsigned Jobs = 1;
  /// Applied to every response before it is checked: a test seam for
  /// corrupting the wire. Empty in the benchmark.
  std::function<void(std::string &)> Tamper;
};
/// The benchmark's corpus: the paper programs plus two stress shapes.
ServeSetup defaultServeSetup(unsigned Jobs);
std::unique_ptr<Workload> makeServe(uint64_t Seed, ServeSetup Setup,
                                    SpanRecorder *Spans = nullptr);

/// Every per-layer metric name and unit, so that each traced run prints
/// the full set (zero where a layer does no work on that workload).
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
