//===- core/PostPassTool.cpp - The post-pass binary adaptation tool -------===//

#include "core/PostPassTool.h"

#include "analysis/RegionGraph.h"
#include "core/AnalysisCache.h"
#include "support/Assert.h"
#include "support/ThreadPool.h"
#include "trigger/TriggerPlacer.h"
#include "verify/PassManager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>

using namespace ssp;
using namespace ssp::core;
using namespace ssp::analysis;
using namespace ssp::ir;

PostPassTool::PostPassTool(const Program &Orig,
                           const profile::ProfileData &PD, ToolOptions Opts)
    : Orig(Orig), PD(PD), Opts(Opts) {}

sched::ScheduleOptions PostPassTool::scheduleOptionsOf(const ToolOptions &Opts) {
  sched::ScheduleOptions SchedOpts;
  SchedOpts.EnableLoopRotation = Opts.EnableLoopRotation;
  SchedOpts.EnableConditionPrediction = Opts.EnableConditionPrediction;
  return SchedOpts;
}

analysis::SpecDepOptions
PostPassTool::specDepOptionsOf(const ToolOptions &Opts) {
  analysis::SpecDepOptions SpecOpts;
  SpecOpts.Enabled = Opts.EnableSpecDeps;
  SpecOpts.Threshold = Opts.SpecDepThreshold;
  return SpecOpts;
}

Program PostPassTool::adapt(AdaptationReport *Report) {
  return adaptWith(nullptr, Report);
}

Program PostPassTool::adaptWith(const AnalysisCache *ExternalAC,
                                AdaptationReport *Report) {
  // Stage wall-time metrics (off unless the caller supplied a registry;
  // the adaptation itself is identical either way).
  auto StageStart = std::chrono::steady_clock::now();
  auto EndStage = [&](const char *Name) {
    if (!Opts.Metrics)
      return;
    auto NowT = std::chrono::steady_clock::now();
    Opts.Metrics->addTimeMs(
        Name, std::chrono::duration<double, std::milli>(NowT - StageStart)
                  .count());
    StageStart = NowT;
  };

  // Every analysis is built once (or arrives warm from the serving
  // daemon's memo); candidate generation below only reads it
  // (const-shared across ThreadPool workers when Jobs != 1).
  std::optional<AnalysisCache> OwnAC;
  if (!ExternalAC) {
    OwnAC.emplace(Orig, PD, Opts.Slicing, scheduleOptionsOf(Opts),
                  specDepOptionsOf(Opts));
    ExternalAC = &*OwnAC;
  }
  const AnalysisCache &AC = *ExternalAC;
  const ProgramDeps &Deps = AC.deps();
  const RegionGraph &RG = AC.regions();
  const CallGraph &CG = AC.calls();

  sched::SliceScheduler Scheduler = AC.makeScheduler();
  trigger::TriggerPlacer Placer(Deps, RG, PD);

  std::vector<profile::DelinquentLoad> DLoads = profile::selectDelinquentLoads(
      Orig, PD, Opts.DelinquentCoverage, Opts.MaxDelinquentLoads);

  AdaptationReport Rep;
  Rep.DelinquentLoads = static_cast<unsigned>(DLoads.size());
  EndStage("adapt.analysis_ms");

  struct Candidate {
    slicer::Slice Slice;                    ///< Primary-context slice.
    sched::ScheduledSlice Sched;
    std::vector<slicer::Slice> ExtraParts;  ///< Other calling contexts.
    uint64_t Reduced = 0;
    unsigned Depth = 0;
    double TripPerEntry = 1.0;
    /// Feedback override of the primary load (no-op defaults when the
    /// load has none). When overlapping slices are combined, the
    /// earlier (hotter) candidate's override wins.
    LoadOverride Override;
  };

  // Converts slice members that sit *before* the trigger position (and
  // thus have already executed on the main thread when the exception
  // fires) into live-ins; re-executing them in the p-slice would double
  // apply their effects (e.g. a stack-pointer decrement).
  auto DropPreTriggerMembers = [this](slicer::Slice &S,
                                      const trigger::TriggerPlacement &T) {
    std::set<ir::Reg> DroppedDefs;
    std::vector<analysis::InstRef> Kept;
    for (const analysis::InstRef &M : S.Insts) {
      if (M.Func == T.Where.Func && M.Block == T.Where.Block &&
          M.Inst < T.Where.Inst) {
        ir::Reg D = M.get(Orig).def();
        if (D.isValid())
          DroppedDefs.insert(D);
        continue;
      }
      Kept.push_back(M);
    }
    if (Kept.size() == S.Insts.size())
      return false;
    std::set<ir::Reg> Lives(S.LiveIns.begin(), S.LiveIns.end());
    auto NoteUses = [&](const analysis::InstRef &M) {
      M.get(Orig).forEachUse([&](ir::Reg U) {
        if (DroppedDefs.count(U))
          Lives.insert(U);
      });
    };
    for (const analysis::InstRef &M : Kept)
      NoteUses(M);
    for (const analysis::InstRef &M : S.TargetLoads)
      NoteUses(M);
    S.Insts = std::move(Kept);
    S.LiveIns.assign(Lives.begin(), Lives.end());
    return true;
  };

  // Candidate generation fans out across the pool: each delinquent load is
  // independent, so worker Idx writes only Slots[Idx]/HasSlot[Idx]. The
  // merge below reads the slots in load order, making the report and the
  // emitted binary bit-identical for every job count (Jobs == 1 runs the
  // loop bodies inline on this thread).
  std::vector<Candidate> Slots(DLoads.size());
  std::vector<uint8_t> HasSlot(DLoads.size(), 0);
  std::optional<support::ThreadPool> OwnPool;
  support::ThreadPool *Pool = Opts.Pool;
  if (!Pool) {
    OwnPool.emplace(Opts.Jobs);
    Pool = &*OwnPool;
  }

  Pool->parallelFor(DLoads.size(), [&](size_t LoadIdx) {
    const profile::DelinquentLoad &D = DLoads[LoadIdx];
    // Feedback directives for this load (default: no change).
    LoadOverride Ov;
    if (auto It = Opts.Overrides.find(D.Sid); It != Opts.Overrides.end())
      Ov = It->second;
    if (Ov.Drop)
      return;
    // Worker-private slicer/scheduler: cheap copies sharing the cache's
    // precomputed summary and call-cost tables, owning only scratch.
    slicer::Slicer WorkerSlicer = AC.makeSlicer();
    sched::SliceScheduler WorkerSched = AC.makeScheduler();

    uint64_t LoadExecs = 0;
    if (auto It = PD.Loads.find(D.Sid); It != PD.Loads.end())
      LoadExecs = It->second.Accesses;
    if (LoadExecs == 0)
      return;
    uint64_t MissPerExec = D.MissCycles / LoadExecs;
    if (MissPerExec == 0)
      return;

    // Region traversal: innermost outward (Section 3.4.1). When the
    // traversal climbs from a procedure into its callers, up to two
    // calling contexts (the hottest call sites) are sliced and their
    // slices merged, so e.g. both of treeadd's recursive call sites
    // contribute prefetches.
    int RegionIdx = RG.innermostRegionOf(D.Ref, Deps);
    std::vector<std::vector<InstRef>> Contexts = {{}};
    Candidate Best;
    bool HaveBest = false;

    for (unsigned Depth = 0; Depth < Opts.MaxRegionDepth && RegionIdx >= 0;
         ++Depth) {
      // Slice each calling context; the hottest valid one is primary and
      // the rest become extra emission sections (basic SP). A feedback
      // hoist directive rejects regions shallower than MinRegionDepth
      // (the traversal still runs so caller contexts accumulate).
      std::vector<slicer::Slice> Parts;
      if (Depth >= Ov.MinRegionDepth)
        for (const std::vector<InstRef> &Ctx : Contexts) {
          slicer::Slice SP2 = WorkerSlicer.computeSlice(D.Ref, RegionIdx, Ctx);
          if (SP2.Valid)
            Parts.push_back(std::move(SP2));
        }
      if (!Parts.empty()) {
        slicer::Slice &S = Parts.front();
        const Region &R = RG.region(RegionIdx);
        double TripPerEntry = 1.0;
        double Entries = 1.0;
        if (R.Kind == RegionKind::Loop) {
          const Loop &L = Deps.forFunction(R.Func).loops().loop(R.LoopIdx);
          TripPerEntry = PD.tripCountOf(R.Func, L);
          uint64_t HeaderCount = PD.blockCount(R.Func, L.Header);
          Entries = TripPerEntry > 0
                        ? static_cast<double>(HeaderCount) / TripPerEntry
                        : 1.0;
        }

        // Evaluate both precomputation models; small trip counts or
        // better slack pick basic SP (Section 3.4.1). Chaining applies
        // whenever an iteration structure exists: the region itself or,
        // for procedure regions, the loop the load sits in (the prologue
        // thread bridges from the region entry to the chain).
        bool LoadInLoop = Deps.forFunction(D.Ref.Func)
                              .loops()
                              .innermostLoopOf(D.Ref.Block) >= 0;
        std::vector<sched::SPModel> Models;
        if (Opts.EnableChaining &&
            (R.Kind == RegionKind::Loop || LoadInLoop))
          Models.push_back(sched::SPModel::Chaining);
        Models.push_back(sched::SPModel::Basic);

        // A slice that never computes any prefetch base register would
        // prefetch an address the main thread has in hand at the trigger:
        // zero lead for procedure regions. Reject it there.
        bool NullPrefetch = false;
        if (R.Kind == RegionKind::Procedure) {
          bool ComputesBase = false;
          std::set<ir::Reg> Defs;
          for (const analysis::InstRef &M : S.Insts) {
            ir::Reg DR = M.get(Orig).def();
            if (DR.isValid())
              Defs.insert(DR);
          }
          for (const analysis::InstRef &T : S.TargetLoads)
            if (Defs.count(T.get(Orig).Src1))
              ComputesBase = true;
          NullPrefetch = !ComputesBase;
        }

        for (sched::SPModel M : Models) {
          if (NullPrefetch)
            break;
          sched::ScheduledSlice Sched = WorkerSched.schedule(S, M);
          // Chaining iterates the *chain* loop; procedure regions fire the
          // trigger once per invocation.
          double TripEff = TripPerEntry, EntriesEff = Entries;
          if (R.Kind == RegionKind::Procedure) {
            EntriesEff = static_cast<double>(PD.blockCount(
                R.Func, Deps.forFunction(R.Func).cfg().entry()));
            if (M == sched::SPModel::Chaining)
              TripEff = std::max(1.0, Sched.ChainTripCount);
          }
          uint64_t PerEntry = sched::SliceScheduler::reducedMissCycles(
              Sched.SlackPerIteration, MissPerExec, TripEff);
          uint64_t Reduced =
              static_cast<uint64_t>(PerEntry * std::max(1.0, EntriesEff));
          // Very short loops cannot amortize chaining spawn overhead.
          if (M == sched::SPModel::Chaining && TripEff < 3.0)
            Reduced /= 4;
          if (Opts.Verbose)
            std::fprintf(stderr,
                         "  [tool] load=%s region=%d depth=%u model=%s "
                         "slack=%llu reduced=%llu (miss=%llu)\n",
                         D.Ref.str().c_str(), RegionIdx, Depth,
                         sched::modelName(M),
                         static_cast<unsigned long long>(
                             Sched.SlackPerIteration),
                         static_cast<unsigned long long>(Reduced),
                         static_cast<unsigned long long>(D.MissCycles));
          if (Sched.SlackPerIteration < Opts.MinSlackCycles)
            continue; // No useful prefetch distance: skip this candidate.
          // Inner regions are preferred "when the reduced miss cycles are
          // about the same" (Section 3.4.1): an outer region must beat
          // the incumbent by a margin to displace it.
          if (!HaveBest || Reduced > Best.Reduced + Best.Reduced / 20) {
            Best.Slice = S;
            Best.Sched = Sched;
            Best.ExtraParts.assign(Parts.begin() + 1, Parts.end());
            Best.Reduced = Reduced;
            Best.Depth = Depth;
            Best.TripPerEntry = TripPerEntry;
            Best.Override = Ov;
            HaveBest = true;
          }
        }
      }

      // Step outward; crossing into a caller extends every context with
      // the caller's call sites (up to two within the chosen caller).
      InstRef CrossedCall;
      const Region &Cur = RG.region(RegionIdx);
      bool WasProcedure = Cur.Kind == RegionKind::Procedure;
      int Parent = RG.outwardParent(RegionIdx, CG, Deps, &CrossedCall);
      if (WasProcedure && Parent >= 0) {
        // All call sites of the chosen caller function that land in the
        // same parent region, hottest first, capped at two.
        std::vector<InstRef> Sites{CrossedCall};
        for (const CallSite &CS : CG.callersOf(Cur.Func)) {
          if (Sites.size() >= 2)
            break;
          if (CS.Site.Func == CrossedCall.Func &&
              !(CS.Site == CrossedCall) &&
              RG.innermostRegionOf(CS.Site, Deps) == Parent)
            Sites.push_back(CS.Site);
        }
        std::vector<std::vector<InstRef>> NewContexts;
        for (const std::vector<InstRef> &Ctx : Contexts)
          for (const InstRef &Site : Sites) {
            if (NewContexts.size() >= 2)
              break;
            std::vector<InstRef> Extended = Ctx;
            Extended.push_back(Site);
            NewContexts.push_back(std::move(Extended));
          }
        Contexts = std::move(NewContexts);
      }
      RegionIdx = Parent;
    }

    // "If none of the regions reduce the miss cycles beyond the threshold,
    // we pick the region with the largest percentage."
    if (HaveBest && Best.Reduced > 0) {
      Slots[LoadIdx] = std::move(Best);
      HasSlot[LoadIdx] = 1;
    }
  });
  EndStage("adapt.candidates_ms");

  // Deterministic merge: drain the slots in delinquent-load order, exactly
  // the sequence the old serial loop produced.
  std::vector<Candidate> Chosen;
  for (size_t Idx = 0; Idx < Slots.size(); ++Idx)
    if (HasSlot[Idx])
      Chosen.push_back(std::move(Slots[Idx]));

  // Combine slices that share dependence-graph nodes within one region.
  std::vector<Candidate> Combined;
  for (Candidate &C : Chosen) {
    bool Merged = false;
    for (Candidate &Existing : Combined) {
      if (slicer::Slicer::combineIfOverlapping(Existing.Slice, C.Slice)) {
        // Re-schedule the merged slice under the existing model.
        Existing.Sched =
            Scheduler.schedule(Existing.Slice, Existing.Sched.Model);
        Merged = true;
        break;
      }
    }
    if (!Merged)
      Combined.push_back(std::move(C));
  }
  EndStage("adapt.combine_ms");

  // Trigger placement and rewrite payload.
  std::vector<codegen::AdaptedLoad> Adapted;
  for (Candidate &C : Combined) {
    codegen::AdaptedLoad AL;

    // Fixpoint between trigger placement and slice contents: members that
    // precede the trigger become live-ins, which can in turn move the
    // trigger past their producers.
    trigger::TriggerPlan Plan;
    bool RestartTriggers =
        Opts.EnableRestartTriggers && !C.Override.NoRestartTrigger;
    for (int Iter = 0; Iter < 3; ++Iter) {
      Plan = Placer.place(C.Slice, C.Sched, RestartTriggers);
      if (Plan.Triggers.empty())
        break;
      bool Changed = false;
      if (RG.region(C.Slice.RegionIdx).Kind == RegionKind::Procedure) {
        Changed |= DropPreTriggerMembers(C.Slice, Plan.Triggers.front());
        for (slicer::Slice &EP : C.ExtraParts)
          Changed |= DropPreTriggerMembers(EP, Plan.Triggers.front());
      }
      if (!Changed)
        break;
      C.Sched = Scheduler.schedule(C.Slice, C.Sched.Model);
    }

    AL.Slice = C.Slice;
    AL.Sched = C.Sched;
    AL.Plan = Plan;
    AL.InnerUnroll =
        C.Override.InnerUnroll ? C.Override.InnerUnroll : Opts.InnerUnroll;
    AL.RegionDepth = C.Depth;
    // The chain budget covers the chain loop's trips (with headroom for
    // trip-count variance across region entries). A feedback throttle/
    // deepen directive scales it by 2^N before the clamp.
    double BudgetTrips =
        std::max(C.TripPerEntry, C.Sched.ChainTripCount) * 2.0;
    BudgetTrips = std::ldexp(BudgetTrips, C.Override.TripBudgetLog2);
    AL.TripBudget = std::min<uint64_t>(
        Opts.MaxTripBudget,
        std::max<uint64_t>(4, static_cast<uint64_t>(BudgetTrips)));
    if (AL.Plan.Triggers.empty())
      continue;

    // Extra calling-context sections (basic SP only); the stub stages the
    // union of all sections' live-ins.
    if (C.Sched.Model == sched::SPModel::Basic) {
      std::set<ir::Reg> Union(AL.Slice.LiveIns.begin(),
                              AL.Slice.LiveIns.end());
      for (slicer::Slice &EP : C.ExtraParts) {
        AL.ExtraSections.push_back(
            Scheduler.schedule(EP, sched::SPModel::Basic));
        AL.ExtraTargets.push_back(EP.TargetLoads);
        Union.insert(EP.LiveIns.begin(), EP.LiveIns.end());
      }
      AL.Slice.LiveIns.assign(Union.begin(), Union.end());
    }

    SliceReport SR;
    SR.FunctionName = Orig.func(C.Slice.PrimaryLoad.Func).getName();
    SR.Load = C.Slice.PrimaryLoad;
    SR.Size = static_cast<unsigned>(C.Slice.Insts.size());
    for (const slicer::Slice &EP : C.ExtraParts)
      SR.Size += static_cast<unsigned>(EP.Insts.size());
    SR.LiveIns = static_cast<unsigned>(C.Slice.LiveIns.size());
    SR.Interprocedural = C.Slice.Interprocedural;
    SR.Model = C.Sched.Model;
    SR.PredictedCondition = C.Sched.PredictCondition;
    SR.RegionDepth = C.Depth;
    SR.SlackPerIteration = C.Sched.SlackPerIteration;
    SR.AvailableILP = C.Sched.AvailableILP;
    SR.HeuristicTriggerCost = AL.Plan.HeuristicCost;
    SR.MinCutTriggerCost = Placer.minCutCost(C.Slice);
    SR.Targets = static_cast<unsigned>(C.Slice.TargetLoads.size());
    Rep.Slices.push_back(SR);

    Adapted.push_back(std::move(AL));
  }
  EndStage("adapt.triggers_ms");

  Program Enhanced = codegen::rewriteWithSlices(Orig, Adapted, &Rep.Rewrite,
                                                &Rep.Manifest,
                                                Opts.EnableStreams);
  // Record the feedback directives the run honoured (std::map order:
  // sorted by load sid) so the `feedback.*` verify pass can audit them.
  for (const auto &[Sid, Ov] : Opts.Overrides) {
    verify::FeedbackOverrideRecord FR;
    FR.LoadSid = Sid;
    FR.Drop = Ov.Drop;
    FR.NoRestartTrigger = Ov.NoRestartTrigger;
    FR.MinRegionDepth = Ov.MinRegionDepth;
    FR.TripBudgetLog2 = Ov.TripBudgetLog2;
    FR.InnerUnroll = Ov.InnerUnroll;
    Rep.Manifest.FeedbackOverrides.push_back(FR);
  }
  EndStage("adapt.rewrite_ms");

  // Validate the adaptation end to end: the emitted binary against the
  // original (translation validation) and against the rewrite plan, plus
  // the stub/slice speculation contracts. Errors here mean the tool
  // produced an unsafe binary — by default that is fatal. The rewriter
  // does not check its own output; this pipeline's structural pass does.
  ssp::verify::VerifyContext VC{Enhanced, &Orig, &Rep.Manifest, Opts.Metrics,
                                &AC.specDeps()};
  ssp::verify::DiagnosticEngine DE = ssp::verify::runStandardPipeline(VC);
  Rep.VerifyErrors = DE.errorCount();
  Rep.VerifyWarnings = DE.warningCount();
  Rep.VerifyDiags = DE.diagnostics();
  if (DE.hasErrors() && Opts.FatalOnVerifyError) {
    std::fprintf(stderr, "%s",
                 ssp::verify::renderTextAll(DE, &Enhanced).c_str());
    fatalError("adapted binary failed SSP verification");
  }
  EndStage("adapt.verify_ms");

  if (Opts.Metrics) {
    Opts.Metrics->addCounter("adapt.runs");
    Opts.Metrics->addCounter("adapt.delinquent_loads", Rep.DelinquentLoads);
    Opts.Metrics->addCounter("adapt.slices", Rep.numSlices());
    Opts.Metrics->addCounter("adapt.interprocedural_slices",
                             Rep.numInterprocedural());
    Opts.Metrics->addCounter("adapt.triggers_inserted",
                             Rep.Rewrite.TriggersInserted);
    Opts.Metrics->addCounter("adapt.verify_errors", Rep.VerifyErrors);
    Opts.Metrics->addCounter("adapt.verify_warnings", Rep.VerifyWarnings);
  }

  if (Report)
    *Report = std::move(Rep);
  return Enhanced;
}

profile::ProfileData
ssp::core::profileProgram(const Program &P,
                          const sim::MemoryBuilder &BuildMemory,
                          sim::RunOutcome *Baseline) {
  LinkedProgram LP = LinkedProgram::link(P);

  // Pass 1: functional run for block/edge frequencies and dynamic calls.
  // Its image is freed before pass 2 builds a second one.
  profile::ProfileData PD;
  {
    mem::SimMemory FuncMem;
    BuildMemory(FuncMem);
    PD = profile::collectControlFlowProfile(LP, FuncMem);
  }

  // Pass 2: baseline in-order timing run for the cache profile.
  sim::RunOutcome Own, &Run = Baseline ? *Baseline : Own;
  Run = sim::runProgram(LP, BuildMemory, sim::MachineConfig::inOrder());
  profile::addCacheProfile(PD, Run.Stats);
  return PD;
}
