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
/// SuiteRunner is the one profile -> adapt -> simulate pipeline outside
/// perfbench. As in the paper's Figure 1, the profile's timing run is the
/// in-order baseline (simulateOriginal; DESIGN.md, "Running a binary").
///
/// Parallel experiment engine: SuiteRunner's caches are mutex-guarded with
/// per-key once-initialization, so independent jobs may share one runner
/// without ever computing the same key twice; each simulation job owns its
/// SimMemory image, CacheHierarchy and BranchPredictor (all private to its
/// Simulator), so Simulator itself needs no locking and results are
/// bit-identical to the serial path regardless of thread count. Given a
/// support::ThreadPool, run fans the simulations of a BenchResult out
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

/// A workload's binary adapted under a runner's tool options.
struct Adapted {
  ir::Program Program;
  core::AdaptationReport Report;
};

/// Runs workloads through the full pipeline with caching. Thread-safe: all
/// public methods may be called concurrently; each cache key is computed
/// exactly once (other callers block until it is ready) and references
/// returned from the caches are stable for the runner's lifetime.
class SuiteRunner {
public:
  explicit SuiteRunner(core::ToolOptions Opts = core::ToolOptions())
      : Opts(std::move(Opts)) {}

  /// Full result for \p W (profile -> adapt -> simulations). Cached. When
  /// \p Pool is non-null the simulations run through its cooperative
  /// parallelFor, so a pool task may pass its own pool; while \p W is
  /// being computed, no task on \p Pool may request \p W again.
  const BenchResult &run(const workloads::Workload &W,
                         support::ThreadPool *Pool = nullptr);

  /// Warms the cache for all of \p Ws (distinct names): one run(W, &Pool)
  /// job per workload. Subsequent run() calls return the cached results.
  void runAll(const std::vector<workloads::Workload> &Ws,
              support::ThreadPool &Pool);

  /// Simulates \p W's original binary under \p Cfg (Figure 2's idealized
  /// modes are reached through Cfg.PerfectMemory / Cfg.PerfectLoads), or,
  /// under the profiling config sim::MachineConfig::inOrder(), returns the
  /// cached profile's timing run. Reports the checksum like simulate().
  sim::SimStats simulateOriginal(const workloads::Workload &W,
                                 sim::MachineConfig Cfg,
                                 bool *ChecksumOk = nullptr);

  /// The profile of \p W's original binary. Cached.
  const profile::ProfileData &profileOf(const workloads::Workload &W) {
    return profiledOf(W).PD;
  }

  /// \p W's original (pre-adaptation) binary. Cached.
  const ir::Program &originalOf(const workloads::Workload &W);

  /// \p W's binary adapted from profileOf(W). Cached.
  const Adapted &adaptedOf(const workloads::Workload &W);

  /// StaticIds of the delinquent loads the tool would select for \p W.
  std::unordered_set<ir::StaticId>
  delinquentIdsOf(const workloads::Workload &W);

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

  /// A profile and its timing run (core::profileProgram's Baseline).
  struct Profiled {
    profile::ProfileData PD;
    sim::RunOutcome Baseline;
  };

  /// Finds or creates the node for \p Key under the cache mutex. The lock
  /// covers only the map operation, never a simulation.
  template <typename T>
  CacheEntry<T> &entryFor(std::map<std::string, CacheEntry<T>> &M,
                          const std::string &Key) {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    return M[Key];
  }

  const Profiled &profiledOf(const workloads::Workload &W);

  void computeResult(const workloads::Workload &W, BenchResult &R,
                     support::ThreadPool *Pool);

  /// The Table 1 machine with the runner's skip/sampling settings.
  sim::MachineConfig cfgFor(bool OutOfOrder) const {
    sim::MachineConfig C = OutOfOrder ? sim::MachineConfig::outOfOrder()
                                      : sim::MachineConfig::inOrder();
    C.SkipIdleCycles = SkipIdle;
    C.Sample = SamplePlan;
    return C;
  }

  core::ToolOptions Opts;
  bool SkipIdle = true;
  sim::SamplingPlan SamplePlan;
  std::mutex CacheMutex;
  std::map<std::string, CacheEntry<BenchResult>> Cache;
  std::map<std::string, CacheEntry<Adapted>> Adaptations;
  std::map<std::string, CacheEntry<Profiled>> Profiles;
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
