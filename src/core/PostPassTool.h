//===- core/PostPassTool.h - The post-pass binary adaptation tool ---------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the reproduction: the post-pass compilation
/// tool of the paper. Given the original binary and profiling feedback
/// (Figure 1's two-pass flow), it
///
///   1. identifies the delinquent loads covering >= 90% of miss cycles,
///   2. walks the region graph outward from each load's innermost region,
///      computing region-restricted context-sensitive slices,
///   3. schedules each slice for chaining or basic SP and evaluates the
///      reduced-miss-cycle objective, selecting the first region crossing
///      the cutoff (Section 3.4.1),
///   4. combines overlapping slices, places triggers, and
///   5. rewrites the binary with stub and slice attachments.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CORE_POSTPASSTOOL_H
#define SSP_CORE_POSTPASSTOOL_H

#include "codegen/SSPCodeGen.h"
#include "obs/Registry.h"
#include "profile/Profile.h"
#include "sim/Run.h"
#include "verify/Diagnostic.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ssp::support {
class ThreadPool;
}

namespace ssp::core {

class AnalysisCache;

/// One per-delinquent-load re-adaptation directive, keyed (in
/// ToolOptions::Overrides) by the load's StaticId in the original binary.
/// This is the channel the closed-loop feedback driver (core/Feedback.h)
/// writes its decisions through; all fields default to "no change" and an
/// empty override map is bit-identical to older builds. Every override is
/// recorded in the AdaptationManifest so the `feedback.*` verify pass can
/// audit that the emitted binary honoured it.
struct LoadOverride {
  /// Suppress adaptation of this load entirely (no slice, no triggers).
  bool Drop = false;
  /// Disable the chain-loop-header restart trigger for this load's slice
  /// (see trigger::TriggerPlan::RestartTriggers).
  bool NoRestartTrigger = false;
  /// Reject candidate regions fewer than this many outward steps from the
  /// innermost — hoist the trigger into a larger region so prefetches get
  /// more lead time.
  unsigned MinRegionDepth = 0;
  /// Scale the chain trip budget by 2^N before the MaxTripBudget clamp
  /// (negative throttles a trigger whose prefetches mostly lapse).
  int TripBudgetLog2 = 0;
  /// Nonzero replaces ToolOptions::InnerUnroll for this load's slice
  /// (deepen inner-loop emission where timely headroom exists).
  unsigned InnerUnroll = 0;

  bool operator==(const LoadOverride &O) const {
    return Drop == O.Drop && NoRestartTrigger == O.NoRestartTrigger &&
           MinRegionDepth == O.MinRegionDepth &&
           TripBudgetLog2 == O.TripBudgetLog2 && InnerUnroll == O.InnerUnroll;
  }
  bool operator!=(const LoadOverride &O) const { return !(*this == O); }
};

/// Thresholds of the feedback policy mapping each trigger's fate
/// distribution to a re-adaptation action (the policy table lives in
/// DESIGN.md "Closed-loop adaptation"; the loop in core/Feedback.h). The
/// fields are request keys (`feedback-*`); the saturation caps are
/// constants.
struct FeedbackPolicy {
  /// Ignore slices with fewer attributed prefetches than this — the fate
  /// distribution is noise at small samples.
  uint64_t MinSample = 256;
  /// Drop the load when useful/(all attributed) falls below this.
  double DropUsefulMax = 0.02;
  /// Hoist (MinRegionDepth+1) when useful-late/useful exceeds this.
  double HoistLateMin = 0.5;
  /// Throttle (TripBudgetLog2-1) when evicted-unused/attributed exceeds
  /// this.
  double ThrottleEvictedMin = 0.25;
  /// Deepen (double the inner unroll) when useful-late/useful is below
  /// this and the slice walks inner-loop members.
  double DeepenLateMax = 0.30;
  /// Disable the restart trigger when its useful fraction is below this
  /// while the cut-set trigger sustains chains >= RestartMinCutDepth deep
  /// on its own.
  static constexpr double RestartUsefulMax = 0.30;
  static constexpr uint32_t RestartMinCutDepth = 64;
  /// Saturation cap for deepened inner unroll (guarantees the override
  /// map reaches a fixpoint).
  static constexpr unsigned MaxInnerUnroll = 8;
  /// Saturation caps for hoisting, throttling and budget deepening.
  static constexpr unsigned MaxHoistDepth = 3;
  static constexpr int MinTripBudgetLog2 = -3;
  static constexpr int MaxTripBudgetLog2 = 2;
};

/// Tuning options of the tool (defaults follow the paper).
struct ToolOptions {
  /// Delinquent loads must cover this fraction of miss cycles.
  double DelinquentCoverage = 0.90;
  unsigned MaxDelinquentLoads = 10;

  /// Region selection: accept the first region whose reduced miss cycles
  /// reach this fraction of the load's total miss cycles ("the cutoff
  /// percentage", Section 3.4.1).
  double ReducedMissCutoff = 0.30;

  /// Stop the region traversal when nested this many levels outward.
  unsigned MaxRegionDepth = 4;

  /// Feature toggles (for the ablation benches).
  bool EnableChaining = true;
  bool EnableLoopRotation = true;
  bool EnableConditionPrediction = true;

  /// Speculation-aware dependence analysis (`--spec-deps[=T]`): prune
  /// may-dependence edges whose profiled activation ratio is at most
  /// SpecDepThreshold, recording every drop for the `speculation.*`
  /// verify pass. Off by default; off is bit-identical to older builds.
  bool EnableSpecDeps = false;
  double SpecDepThreshold = 0.0;

  /// Stream-descriptor classification (`--streams`): attach compact
  /// StreamDescriptors to chained slices whose access pattern classifies
  /// as affine / pointer-chase / indirect; the simulator's stream engine
  /// then executes those descriptors directly at trigger time instead of
  /// spawning a thread context. Off by default; off is bit-identical to
  /// older builds.
  bool EnableStreams = false;

  /// Bound on the chain length when the spawn condition is predicted.
  uint64_t MaxTripBudget = 4096;

  /// Reject adaptations whose estimated slack per iteration is below this
  /// (a prefetch with no slack only adds trigger overhead).
  uint64_t MinSlackCycles = 16;

  /// Install chain restart triggers at the chain-loop header (see
  /// TriggerPlan::RestartTriggers).
  bool EnableRestartTriggers = true;

  /// Total emission count for inner-loop slice members (collision chains
  /// etc. walked this many steps per chain link).
  unsigned InnerUnroll = 2;

  /// Per-delinquent-load re-adaptation directives keyed by original-binary
  /// StaticId (std::map: deterministic order for canonical option
  /// rendering). Empty (the default) leaves every code path untouched.
  std::map<uint64_t, LoadOverride> Overrides;

  /// Closed-loop feedback re-adaptation (`ssp-adapt --feedback[=N]`):
  /// upper bound on adapt -> simulate -> re-adapt rounds, read by
  /// core::runFeedbackLoop. 0 (the default) disables the loop in the
  /// CLIs and the serving daemon; adapt() itself never reads it. Bare
  /// `--feedback` sets core::DefaultFeedbackRounds.
  unsigned FeedbackRounds = 0;
  /// Thresholds of the feedback policy (only read when FeedbackRounds>0).
  FeedbackPolicy Feedback;

  /// Worker threads for per-delinquent-load candidate generation. 0 picks
  /// hardware concurrency; 1 (the default) is the exact inline serial
  /// path. The AdaptationReport and the emitted binary are bit-identical
  /// for every value: candidates land in per-load result slots and are
  /// merged in load order.
  unsigned Jobs = 1;

  /// Trace candidate evaluation to stderr.
  bool Verbose = false;

  /// adapt() always runs the verification pipeline over the adapted
  /// binary. With this set, its errors abort via fatalError (a tool bug:
  /// the rewriter emitted an unsafe adaptation). The CLIs, the daemon and
  /// perfbench set it false; the findings are in
  /// AdaptationReport::VerifyDiags either way.
  bool FatalOnVerifyError = true;

  /// Optional metrics sink: adapt() reports per-stage wall times
  /// ("adapt.<stage>_ms") and summary counters ("adapt.*") into it, and
  /// forwards it to the verification pipeline ("verify.<pass>_ms").
  /// Null (the default) disables all metric collection; the adaptation
  /// output is identical either way (`ssp-adapt --metrics out.json`).
  obs::Registry *Metrics = nullptr;

  /// Optional external worker pool. When set, adapt() fans candidate
  /// generation out on it instead of constructing a private pool (and
  /// Jobs is ignored). The serving daemon points every request at one
  /// process-wide pool; parallelFor's cooperative wait makes the nested
  /// use (requests over loads) safe. Results are unchanged either way.
  support::ThreadPool *Pool = nullptr;

  /// Slicing options; `Slicing.Speculative` is the `speculative` key.
  slicer::SliceOptions Slicing;
};

/// Per-slice entry of the adaptation report (the rows behind Table 2).
struct SliceReport {
  std::string FunctionName;
  analysis::InstRef Load;
  unsigned Size = 0;       ///< Slice instructions.
  unsigned LiveIns = 0;
  bool Interprocedural = false;
  sched::SPModel Model = sched::SPModel::Chaining;
  bool PredictedCondition = false;
  unsigned RegionDepth = 0; ///< Outward steps taken from the innermost.
  uint64_t SlackPerIteration = 0;
  double AvailableILP = 1.0;
  uint64_t HeuristicTriggerCost = 0;
  uint64_t MinCutTriggerCost = 0;
  unsigned Targets = 1; ///< Delinquent loads covered after combining.
};

/// Aggregate adaptation results (Table 2).
struct AdaptationReport {
  std::vector<SliceReport> Slices;
  unsigned DelinquentLoads = 0;
  codegen::RewriteInfo Rewrite;

  /// The rewrite plan handed to the verification pipeline.
  verify::AdaptationManifest Manifest;
  /// Verification findings over the adapted binary. VerifyErrors > 0
  /// means the binary is unsafe: the feedback loop never simulates it.
  std::vector<verify::Diagnostic> VerifyDiags;
  unsigned VerifyErrors = 0;
  unsigned VerifyWarnings = 0;

  unsigned numSlices() const {
    return static_cast<unsigned>(Slices.size());
  }
  unsigned numInterprocedural() const {
    unsigned N = 0;
    for (const SliceReport &S : Slices)
      N += S.Interprocedural;
    return N;
  }
  double averageSize() const {
    if (Slices.empty())
      return 0.0;
    double Sum = 0;
    for (const SliceReport &S : Slices)
      Sum += S.Size;
    return Sum / static_cast<double>(Slices.size());
  }
  double averageLiveIns() const {
    if (Slices.empty())
      return 0.0;
    double Sum = 0;
    for (const SliceReport &S : Slices)
      Sum += S.LiveIns;
    return Sum / static_cast<double>(Slices.size());
  }
};

/// The post-pass tool. Holds references to the original binary and its
/// profile for the duration of the adaptation.
class PostPassTool {
public:
  PostPassTool(const ir::Program &Orig, const profile::ProfileData &PD,
               ToolOptions Opts = ToolOptions());

  /// Runs the full pipeline and returns the SSP-enhanced binary.
  ir::Program adapt(AdaptationReport *Report = nullptr);

  /// Like adapt(), but reuses a prebuilt AnalysisCache instead of building
  /// one — the serving daemon's warm path, which keeps per-program
  /// analyses alive across requests. \p AC must have been constructed from
  /// this tool's program/profile with Slicing, scheduleOptionsOf and
  /// specDepOptionsOf of these options; null falls back to building locally.
  ir::Program adaptWith(const AnalysisCache *AC,
                        AdaptationReport *Report = nullptr);

  /// The AnalysisCache construction parameters adapt() derives from
  /// \p Opts besides Opts.Slicing, exposed so external caches match
  /// exactly.
  static sched::ScheduleOptions scheduleOptionsOf(const ToolOptions &Opts);
  static analysis::SpecDepOptions specDepOptionsOf(const ToolOptions &Opts);

private:
  const ir::Program &Orig;
  const profile::ProfileData &PD;
  ToolOptions Opts;
};

/// Convenience: profile \p P by running it (functional pass + baseline
/// in-order timing pass through sim::runProgram) with memory images
/// produced by the sim::MemoryBuilder \p BuildMemory. The timing pass runs
/// sim::MachineConfig::inOrder(); \p Baseline, when non-null, receives it,
/// so a caller needing that in-order baseline need not simulate it again.
profile::ProfileData profileProgram(const ir::Program &P,
                                    const sim::MemoryBuilder &BuildMemory,
                                    sim::RunOutcome *Baseline = nullptr);

} // namespace ssp::core

#endif // SSP_CORE_POSTPASSTOOL_H
