//===- core/AnalysisCache.h - Shared immutable adaptation analyses --------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All analyses the adaptation pipeline consumes: per-function
/// CFG/dominators/loops/reaching-defs/control dependences (inside
/// ProgramDeps), the region graph, the call graph, the slicer's callee
/// summaries, and the scheduler's call costs and region heights. Candidate
/// generation for every delinquent load reads this one cache — serially or
/// from ThreadPool workers — instead of rebuilding analyses per candidate.
///
/// The constructor builds what every adaptation reads whole: each
/// function's CFG, dominators and loops, the region and call graphs, the
/// speculation classifier and the call-cost table. Reaching defs, control
/// dependences, callee summaries and region heights are built per function
/// or region on first use: the tool slices around only a few delinquent
/// loads, so most functions and regions are never asked for.
///
/// Ownership and thread-safety contract: the cache owns every analysis and
/// outlives the workers, which share it by const reference. Each lazily
/// built piece is filled once: reaching defs, control dependences and
/// summaries under a per-function std::call_once, region heights through
/// relaxed atomic slots that racing workers fill with the same value.
/// Every piece is a pure function of the program, the profile and the
/// options, so outputs do not depend on the job count, on which thread
/// builds a piece, or on which requests served from this cache came first.
/// The only per-worker state (slicer scratch buffers) lives in the cheap
/// Slicer/SliceScheduler copies makeSlicer()/makeScheduler() hand out,
/// which share the lazily filled tables and the warmed call costs.
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

  /// A worker-private slicer sharing the lazily filled summary table.
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
