//===- harness/Experiment.h - Shared experiment harness -------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment harness shared by every bench binary: it profiles a
/// workload, runs the post-pass tool, simulates the baseline and the
/// SSP-enhanced binary on both research Itanium models (and the idealized
/// memory modes of Figure 2), validates checksums, and caches results so
/// one bench binary never simulates the same configuration twice.
///
/// Parallel experiment engine: SuiteRunner's caches are mutex-guarded with
/// per-key once-initialization, so independent jobs may share one runner
/// without ever simulating the same key twice; each simulation job owns its
/// SimMemory image, CacheHierarchy and BranchPredictor (all private to its
/// Simulator), so Simulator itself needs no locking and results are
/// bit-identical to the serial path regardless of thread count. Given a
/// support::ThreadPool, run fans the four simulations of a BenchResult out
/// across it, and runAll overlaps independent workloads.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_HARNESS_EXPERIMENT_H
#define SSP_HARNESS_EXPERIMENT_H

#include "core/PostPassTool.h"
#include "sim/Run.h"
#include "support/ThreadPool.h"
#include "workloads/Workload.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace ssp::harness {

/// All simulation results for one workload under one tool configuration.
struct BenchResult {
  std::string Name;
  core::AdaptationReport Report;

  sim::SimStats BaseIO;  ///< Original binary, in-order.
  sim::SimStats SspIO;   ///< Enhanced binary, in-order.
  sim::SimStats BaseOOO; ///< Original binary, out-of-order.
  sim::SimStats SspOOO;  ///< Enhanced binary, out-of-order.

  bool ChecksumsOk = true; ///< Every run stored the expected checksum.

  double speedupIO() const {
    return static_cast<double>(BaseIO.Cycles) /
           static_cast<double>(SspIO.Cycles);
  }
  double speedupOOOOverIO() const {
    return static_cast<double>(BaseIO.Cycles) /
           static_cast<double>(BaseOOO.Cycles);
  }
  double speedupSspOOOOverIO() const {
    return static_cast<double>(BaseIO.Cycles) /
           static_cast<double>(SspOOO.Cycles);
  }
};

/// Runs workloads through the full pipeline with caching. Thread-safe: all
/// public methods may be called concurrently; each cache key is computed
/// exactly once (other callers block until it is ready) and references
/// returned from the caches are stable for the runner's lifetime.
class SuiteRunner {
public:
  explicit SuiteRunner(core::ToolOptions Opts = core::ToolOptions())
      : Opts(std::move(Opts)) {}

  /// Full result for \p W (profile -> adapt -> 4 simulations). Cached.
  /// When \p Pool is non-null (and has real workers), the four simulations
  /// run concurrently on it; pass a pool only from a thread that is not
  /// itself a pool worker, or the nested wait can deadlock.
  const BenchResult &run(const workloads::Workload &W,
                         support::ThreadPool *Pool = nullptr);

  /// Warms the cache for all of \p Ws with maximal overlap on \p Pool:
  /// all profiles in parallel, then one pipeline job per workload.
  /// Subsequent run() calls return the cached results instantly.
  void runAll(const std::vector<workloads::Workload> &Ws,
              support::ThreadPool &Pool);

  /// Simulates \p W's original binary under \p Cfg (Figure 2's idealized
  /// modes are reached through Cfg.PerfectMemory / Cfg.PerfectLoads).
  sim::SimStats simulateOriginal(const workloads::Workload &W,
                                 sim::MachineConfig Cfg);

  /// The profile of \p W's original binary. Cached.
  const profile::ProfileData &profileOf(const workloads::Workload &W);

  /// \p W's original (pre-adaptation) binary. Cached.
  const ir::Program &originalOf(const workloads::Workload &W);

  /// StaticIds of the delinquent loads the tool would select for \p W.
  std::unordered_set<ir::StaticId>
  delinquentIdsOf(const workloads::Workload &W);

  const core::ToolOptions &options() const { return Opts; }

  /// Controls event-driven idle-cycle skipping for the runner's own
  /// simulations (run/computeResult). Stats are bit-identical either way;
  /// `--no-skip` in the tools routes here. Set before the first run() —
  /// cached results are not invalidated. Configs passed explicitly to
  /// simulate/simulateOriginal carry their own SkipIdleCycles flag.
  void setSkipIdleCycles(bool Skip) { SkipIdle = Skip; }

  /// Applies a sampled-simulation plan (`--sample` in the benches) to the
  /// runner's own simulations. Profiling always runs exactly — the plan
  /// affects the four timing simulations only. Same caveats as
  /// setSkipIdleCycles: set before the first run().
  void setSamplingPlan(const sim::SamplingPlan &Plan) { SamplePlan = Plan; }

  /// Simulates \p P on \p W's data image (sim::runProgram); reports the
  /// checksum status when \p ChecksumOk is provided.
  static sim::SimStats simulate(const ir::Program &P,
                                const workloads::Workload &W,
                                sim::MachineConfig Cfg,
                                bool *ChecksumOk = nullptr);

private:
  /// A cache node: the once-flag serializes computation of the payload;
  /// the std::map guarantees node stability across concurrent insertions.
  template <typename T> struct CacheEntry {
    std::once_flag Once;
    T Value;
  };

  /// Finds or creates the node for \p Key under the cache mutex. The lock
  /// covers only the map operation, never a simulation.
  template <typename T>
  CacheEntry<T> &entryFor(std::map<std::string, CacheEntry<T>> &M,
                          const std::string &Key) {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    return M[Key];
  }

  void computeResult(const workloads::Workload &W, BenchResult &R,
                     support::ThreadPool *Pool);

  /// Table 1 machine configs with the runner's skip/sampling settings
  /// applied.
  sim::MachineConfig ioCfg() const {
    sim::MachineConfig C = sim::MachineConfig::inOrder();
    C.SkipIdleCycles = SkipIdle;
    C.Sample = SamplePlan;
    return C;
  }
  sim::MachineConfig oooCfg() const {
    sim::MachineConfig C = sim::MachineConfig::outOfOrder();
    C.SkipIdleCycles = SkipIdle;
    C.Sample = SamplePlan;
    return C;
  }

  core::ToolOptions Opts;
  bool SkipIdle = true;
  sim::SamplingPlan SamplePlan;
  std::mutex CacheMutex;
  std::map<std::string, CacheEntry<BenchResult>> Cache;
  std::map<std::string, CacheEntry<profile::ProfileData>> Profiles;
  std::map<std::string, CacheEntry<ir::Program>> Originals;
};

/// The shared command line of the bench binaries:
///   [--jobs N] [--no-skip] [--sample[=W:D:F[:R]]]
/// Each binary registers only the flags it honours (a BenchFlag mask) and
/// parses strictly with support::FlagParser: an unknown flag or malformed
/// value prints the usage text and exits non-zero.
enum BenchFlag : unsigned {
  JobsFlag = 1u << 0,   ///< `--jobs N`, N in [0, 512]; 0 = hardware.
  NoSkipFlag = 1u << 1, ///< `--no-skip`: disable idle-cycle skipping.
  SampleFlag = 1u << 2, ///< `--sample[=W:D:F[:R]]`: sampled simulation.
  AllBenchFlags = JobsFlag | NoSkipFlag | SampleFlag,
};
struct BenchArgs {
  unsigned Jobs = 0; ///< 0 = hardware concurrency.
  bool NoSkip = false;
  sim::SamplingPlan Sample; ///< Disabled unless --sample was given.
};
BenchArgs parseBenchArgs(int argc, char **argv,
                         unsigned Flags = AllBenchFlags);

/// Prints the Table 1 machine-model banner every bench emits.
void printMachineBanner();

} // namespace ssp::harness

#endif // SSP_HARNESS_EXPERIMENT_H
