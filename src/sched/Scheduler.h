//===- sched/Scheduler.h - Scheduling slices for SP ------------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slice scheduling algorithms of Section 3.2. For chaining SP the
/// two-phase scheme of 3.2.1.2 is used: (1) partition the slice dependence
/// graph into strongly connected components, scheduling all instructions
/// of non-degenerate SCCs (dependence cycles, which compute next-iteration
/// live-ins) before the spawn point; (2) list-schedule each part with the
/// forward max-cumulative-cost heuristic, using maximum node height as the
/// priority and lower instruction address as the tie breaker. Dependence
/// reduction (3.2.1.1) runs first: loop rotation and spawn-condition
/// prediction. Basic SP (3.2.2) list-schedules the whole slice ignoring
/// loop-carried dependences.
///
/// The module also implements the slack model:
///   slack_csp(i) = (height(region) - height(critical) - latency(copy+spawn)) * i
///   slack_bsp(i) = (height(region) - height(slice)) * i
/// and the reduced-miss-cycle objective of Section 3.4.1:
///   reduced = sum_i min(miss_cycles_per_iteration, slack(i)).
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SCHED_SCHEDULER_H
#define SSP_SCHED_SCHEDULER_H

#include "sched/SliceDepGraph.h"
#include "slicer/Slicer.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace ssp::sched {

/// The two precomputation models of Section 3.2.
enum class SPModel : uint8_t { Chaining, Basic };

inline const char *modelName(SPModel M) {
  return M == SPModel::Chaining ? "chaining" : "basic";
}

struct ScheduleOptions {
  bool EnableLoopRotation = true;
  bool EnableConditionPrediction = true;
  /// Estimated cycles for the spawn itself (context allocation + restart).
  static constexpr unsigned SpawnOverheadBase = 4;
  /// Estimated cycles per live-in LIB copy.
  static constexpr unsigned CopyLatency = 2;
  /// Estimated main-thread cost of one chk.c exception (pipeline flush +
  /// stub + rfi). Basic SP inside a loop pays it every iteration.
  static constexpr unsigned TriggerOverhead = 24;
};

/// A fully scheduled slice ready for code generation.
struct ScheduledSlice {
  SPModel Model = SPModel::Chaining;

  /// Chaining: instructions before the spawn point (the critical
  /// sub-slice), in issue order. Empty for basic SP.
  std::vector<analysis::InstRef> Critical;

  /// Instructions after the spawn point (chaining) or the whole slice
  /// body (basic), in issue order.
  std::vector<analysis::InstRef> NonCritical;

  /// Slice members outside the chain loop (region-based slicing climbed
  /// past the loop): executed once by a prologue thread that computes the
  /// chain's initial live-ins and spawns the first chain link. Example:
  /// health's `head = village->patients` runs in the prologue; the chain
  /// then walks the list. Empty when the region is the loop itself.
  std::vector<analysis::InstRef> Prologue;

  /// Chain members that belong to a loop nested inside the chain loop (or
  /// to a loop in a callee): the code generator unrolls these within the
  /// emitted straight-line slice so the speculative thread walks several
  /// inner-loop steps (e.g. mst's collision chain) per chain link.
  std::vector<analysis::InstRef> InnerLoopMembers;

  /// Live-in registers that the chain redefines: the chaining thread must
  /// pass their updated values to the next thread through the LIB.
  std::vector<ir::Reg> CarriedRegs;

  /// Registers live into the slice as a whole (copied to the LIB by the
  /// stub at the trigger).
  std::vector<ir::Reg> LiveIns;

  /// Registers live into one chain link (== LiveIns when there is no
  /// prologue; otherwise the prologue stages these).
  std::vector<ir::Reg> ChainLiveIns;

  /// Spawn-condition handling. When a condition branch exists and is not
  /// predicted, the next chaining thread is spawned only if the predicate
  /// holds. When predicted (its computation is load-dependent or too
  /// deep), the chain instead runs on a trip-count budget passed through
  /// the LIB (the concrete realization of Section 3.2.1.1's condition
  /// prediction: the predictable "loop continues" outcome replaces the
  /// computed condition, with the profile-derived budget bounding the
  /// speculation).
  bool HasConditionBranch = false;
  analysis::InstRef ConditionBranch;
  bool PredictCondition = false;

  /// Average trips of the chain loop per region entry (profile-derived);
  /// 1.0 when there is no chain loop.
  double ChainTripCount = 1.0;

  uint64_t RegionHeight = 0;
  uint64_t SliceHeight = 0;
  uint64_t CriticalHeight = 0;
  uint64_t SlackPerIteration = 0;
  double AvailableILP = 1.0;
  unsigned RotationBoundary = 0;
  unsigned CarriedEdgesBefore = 0;
  unsigned CarriedEdgesAfter = 0;

  /// Loop-carried data edges the scheduler's dependence graphs dropped on
  /// profile evidence (sorted, deduplicated). Unioned with the slice's own
  /// drops in the adaptation manifest for the `speculation.*` verify pass.
  std::vector<analysis::SpecDrop> SpecDrops;
};

/// Schedules slices against a region and model.
class SliceScheduler {
public:
  /// \p Spec, when non-null and enabled, drops cold loop-carried data
  /// edges from the slice dependence graphs (never from region graphs).
  SliceScheduler(const analysis::ProgramDeps &Deps,
                 const analysis::RegionGraph &RG,
                 const profile::ProfileData &PD,
                 ScheduleOptions Opts = ScheduleOptions(),
                 const analysis::SpecDeps *Spec = nullptr);

  /// Produces the schedule of \p S under \p Model. The region must be the
  /// slice's region. Chaining on a non-loop region degrades to basic.
  ScheduledSlice schedule(const slicer::Slice &S, SPModel Model);

  /// Section 3.4.1: reduced miss cycles over \p TripCount iterations with
  /// linear slack growth \p SlackPerIter and per-iteration miss cost
  /// \p MissPerIter.
  static uint64_t reducedMissCycles(uint64_t SlackPerIter,
                                    uint64_t MissPerIter, double TripCount);

  /// The expected execution length of one region instance on the main
  /// thread (per loop iteration for loop regions, per invocation for
  /// procedure regions), from profile-weighted instruction latencies. The
  /// slack model uses max(dependence height, schedule length), matching
  /// Section 3.3's "length of program schedule in the main thread".
  uint64_t regionScheduleLength(int RegionIdx);

  /// The slack model's region height: max(dependence height of the
  /// region graph, regionScheduleLength). Computed on first use and
  /// memoised per region in a table every copy of this scheduler shares.
  uint64_t regionHeight(int RegionIdx);

  /// Profile-derived per-invocation length of each function (one
  /// refinement pass over the flat call estimate), used as the call cost
  /// in region heights/lengths.
  const std::vector<uint32_t> &callCosts();

  /// Forces the per-function call-cost table now. Call once before handing
  /// copies of this scheduler to worker threads: copies share the warmed
  /// table and never race to build it. After this, every input of a
  /// region height is fixed (the per-function analyses it reads are built
  /// once, to the same value, by whoever asks first), so workers racing
  /// on a slot of the shared region-height memo store the same value
  /// (relaxed atomics), and outputs do not depend on who wins.
  void ensureCallCosts() { (void)callCosts(); }

private:
  std::vector<unsigned>
  listSchedule(const SliceDepGraph &G, const std::vector<uint64_t> &Heights,
               const std::vector<unsigned> &Subset) const;

  std::vector<uint32_t> CallCostCache;
  bool CallCostsReady = false;

  /// Region index -> regionHeight, UnknownHeight until first computed.
  static constexpr uint64_t UnknownHeight = UINT64_MAX;
  std::shared_ptr<std::vector<std::atomic<uint64_t>>> RegionHeights;

  const analysis::ProgramDeps &Deps;
  const analysis::RegionGraph &RG;
  const profile::ProfileData &PD;
  ScheduleOptions Opts;
  const analysis::SpecDeps *Spec;
};

} // namespace ssp::sched

#endif // SSP_SCHED_SCHEDULER_H
