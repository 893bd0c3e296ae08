//===- core/AnalysisCache.h - Shared immutable adaptation analyses --------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All analyses the adaptation pipeline consumes, built once up front and
/// immutable afterwards: per-function CFG/dominators/loops/reaching-defs
/// (inside ProgramDeps), the region graph, the call graph, the slicer's
/// callee summaries, and the scheduler's per-function call costs. Candidate
/// generation for every delinquent load reads this one cache — serially or
/// from ThreadPool workers — instead of rebuilding analyses per candidate.
///
/// Ownership and thread-safety contract: the cache owns every analysis and
/// outlives the workers. Nothing in it mutates after the constructor
/// returns, with one exception, so workers share it by const reference
/// with no locking. The only mutable per-worker state (slicer scratch
/// buffers) lives in the cheap Slicer/SliceScheduler copies
/// makeSlicer()/makeScheduler() hand out, which share the precomputed
/// summary and call-cost tables.
///
/// The exception is the scheduler's region-height memo, the one table
/// that fills lazily: every scheduler copy shares it, so workers and later
/// requests served from this cache reuse each other's region heights. A
/// slot's value is a pure function of the program, the profile and the
/// call costs, all fixed before the first copy is handed out; workers that
/// race on a slot store the same value through relaxed atomics, so there
/// is no data race and outputs do not depend on the job count or on which
/// requests came first. Filling it eagerly would cost more than it saves:
/// most regions are never reached by a candidate.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CORE_ANALYSISCACHE_H
#define SSP_CORE_ANALYSISCACHE_H

#include "analysis/CallGraph.h"
#include "analysis/DependenceGraph.h"
#include "analysis/RegionGraph.h"
#include "sched/Scheduler.h"
#include "slicer/Slicer.h"

namespace ssp::core {

class AnalysisCache {
public:
  AnalysisCache(const ir::Program &P, const profile::ProfileData &PD,
                slicer::SliceOptions SliceOpts,
                sched::ScheduleOptions SchedOpts,
                analysis::SpecDepOptions SpecOpts = {})
      : Deps(P), Regions(analysis::RegionGraph::build(Deps)),
        Calls(analysis::CallGraph::build(P, PD.IndirectTargets,
                                         PD.CallSiteCounts)),
        Spec(Deps, SpecOpts, PD.depEvidence()),
        MasterSlicer(Deps, Regions, Calls, PD, SliceOpts, &Spec),
        MasterScheduler(Deps, Regions, PD, SchedOpts, &Spec) {
    MasterSlicer.ensureSummaries();
    MasterScheduler.ensureCallCosts();
  }

  AnalysisCache(const AnalysisCache &) = delete;
  AnalysisCache &operator=(const AnalysisCache &) = delete;

  const analysis::ProgramDeps &deps() const { return Deps; }
  const analysis::RegionGraph &regions() const { return Regions; }
  const analysis::CallGraph &calls() const { return Calls; }

  /// Speculation-aware dependence classifier over this program and
  /// profile. Disabled (classifies nothing cold) unless the cache was
  /// built with SpecDepOptions::Enabled and the profile has evidence.
  const analysis::SpecDeps &specDeps() const { return Spec; }

  /// A worker-private slicer sharing the precomputed summary table.
  slicer::Slicer makeSlicer() const { return MasterSlicer; }

  /// A worker-private scheduler sharing the warmed call-cost table and the
  /// region-height memo.
  sched::SliceScheduler makeScheduler() const { return MasterScheduler; }

private:
  analysis::ProgramDeps Deps;
  analysis::RegionGraph Regions;
  analysis::CallGraph Calls;
  analysis::SpecDeps Spec; ///< Before the slicer/scheduler: they point at it.
  slicer::Slicer MasterSlicer;
  sched::SliceScheduler MasterScheduler;
};

} // namespace ssp::core

#endif // SSP_CORE_ANALYSISCACHE_H
