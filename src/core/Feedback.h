//===- core/Feedback.h - Closed-loop feedback-directed re-adaptation ------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The closed-loop driver behind `ssp-adapt --feedback[=N]`: iterate
///
///   adapt -> simulate -> attribute -> re-adapt
///
/// until the proposed per-load override set reaches a fixpoint or the
/// round budget runs out. The paper's tool adapts once from a single
/// profiling run; this loop feeds the simulator's prefetch-lifecycle
/// attribution (sim/SimStats.h: five fates per trigger plus timeliness
/// slack) back into slice construction, in the "forecast slices" spirit
/// of outcome-driven slice tuning.
///
/// The policy maps each adapted slice's aggregated fate distribution to
/// one concrete action per round (first match wins):
///
///   fate signal                                   action
///   --------------------------------------------  -----------------------
///   useful fraction below DropUsefulMax           drop the load
///   evicted-unused fraction over ThrottleEvicted  halve the trip budget
///   useful-late dominates useful (HoistLateMin)   hoist: require a region
///                                                 one step further out
///   restart trigger mostly useless while cut-set  disable the restart
///   chains run deep                               trigger
///   timely-dominated (DeepenLateMax) headroom     deepen: double inner
///                                                 unroll (inner members
///                                                 present) or the trip
///                                                 budget (otherwise)
///
/// Rounds are accepted under *monotonic accept*: the best-so-far binary by
/// simulated speedup is kept, and a regressing round only ever costs the
/// round — never the result. Decisions derive from the best round's
/// attribution, so one rejected proposal re-proposes identically next
/// round and terminates the loop (every action also saturates at a cap).
/// The loop is deterministic for any ToolOptions::Jobs value because
/// PostPassTool::adapt and the simulator both are.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CORE_FEEDBACK_H
#define SSP_CORE_FEEDBACK_H

#include "core/PostPassTool.h"
#include "sim/Sampling.h"

#include <map>
#include <string>
#include <vector>

namespace ssp::core {

class AnalysisCache;

/// One per-load policy decision taken in one round (the audit trail shown
/// in the report and consumed by tests).
struct FeedbackDecision {
  uint64_t LoadSid = 0;       ///< Original-binary StaticId of the load.
  std::string Action;         ///< "drop"|"throttle"|"hoist"|"no-restart"|
                              ///< "deepen-unroll"|"deepen-budget"
  std::string Why;            ///< Fate evidence, human-readable.
  LoadOverride Override;      ///< The resulting override for this load.
};

/// One executed adapt+simulate round.
struct FeedbackRound {
  unsigned Round = 0;             ///< 1 = the one-shot baseline round.
  std::vector<FeedbackDecision> Decisions; ///< Empty in round 1.
  uint64_t Cycles = 0;            ///< Simulated cycles (0: unsimulated).
  double Speedup = 0.0;           ///< BaselineCycles / Cycles.
  bool Accepted = false;          ///< Became the best-so-far binary.
};

/// The round bound bare `--feedback` sets (ToolOptions::FeedbackRounds).
constexpr unsigned DefaultFeedbackRounds = 4;

/// The loop's result: the best-accepted binary plus the full round log.
struct FeedbackResult {
  ir::Program Best;               ///< Best-so-far adapted binary.
  AdaptationReport BestReport;    ///< Its adaptation report.
  std::map<uint64_t, LoadOverride> BestOverrides; ///< Its override set.
  std::vector<FeedbackRound> Rounds;  ///< Executed rounds, in order.
  double OneShotSpeedup = 0.0;    ///< Round 1 simulated speedup.
  double BestSpeedup = 0.0;       ///< Best accepted simulated speedup.
  bool Fixpoint = false;          ///< Converged before the round bound.
};

/// Derives the next round's override set from the best round's manifest
/// and attribution. Pure policy — exposed separately so tests can pin the
/// fate-distribution -> action mapping without running simulations.
/// \p Current is the override set the attributed binary was built with;
/// decisions are appended to \p Decisions. Returns the proposed set
/// (== \p Current when no action fires).
std::map<uint64_t, LoadOverride>
proposeOverrides(const FeedbackPolicy &Policy,
                 const verify::AdaptationManifest &Manifest,
                 const std::vector<sim::PrefetchAttribution> &Attrib,
                 const std::map<uint64_t, LoadOverride> &Current,
                 std::vector<FeedbackDecision> *Decisions = nullptr);

/// Runs the closed loop over \p Orig with profile \p PD. \p Opts supplies
/// the tool configuration: Overrides seeds round 1 (normally empty),
/// Opts.Feedback the policy thresholds and Opts.FeedbackRounds the bound
/// on adapt+simulate rounds, round 1 included (at least one round runs).
/// The sim::MemoryBuilder \p BuildMemory recreates the workload's memory
/// image for each simulation, which sim::runProgram runs under \p Sample
/// (exact when disabled); round 1 and every later round use the same
/// plan, so accept decisions compare like with like. \p AC, when
/// non-null, is a warm analysis cache matching \p Opts (the serving
/// daemon's path); overrides never affect cached analyses, so one cache
/// serves all rounds. A round with verify errors is never simulated: it
/// is rejected, or, in round 1, returned unsimulated as Best (with its
/// diagnostics).
FeedbackResult
runFeedbackLoop(const ir::Program &Orig, const profile::ProfileData &PD,
                const ToolOptions &Opts, const sim::MemoryBuilder &BuildMemory,
                const sim::SamplingPlan &Sample = sim::SamplingPlan(),
                const AnalysisCache *AC = nullptr);

} // namespace ssp::core

#endif // SSP_CORE_FEEDBACK_H
