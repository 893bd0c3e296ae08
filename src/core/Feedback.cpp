//===- core/Feedback.cpp - Closed-loop feedback-directed re-adaptation ----===//

#include "core/Feedback.h"

#include "core/AnalysisCache.h"

#include <algorithm>
#include <set>
#include <unordered_map>

using namespace ssp;
using namespace ssp::core;

namespace {

/// Fate rollup aggregated over a set of triggers.
struct FateSum {
  uint64_t Spawns = 0;
  uint64_t Fates[sim::NumPrefetchFates] = {0, 0, 0, 0, 0};
  uint64_t LateCycles = 0;
  uint32_t MaxChainDepth = 0;

  uint64_t at(sim::PrefetchFate F) const {
    return Fates[static_cast<unsigned>(F)];
  }
  uint64_t accesses() const {
    uint64_t N = 0;
    for (uint64_t F : Fates)
      N += F;
    return N;
  }
  uint64_t useful() const {
    return at(sim::PrefetchFate::UsefulTimely) +
           at(sim::PrefetchFate::UsefulLate);
  }
};

void accumulate(FateSum &Sum, const std::vector<uint64_t> &Sids,
                const std::unordered_map<uint64_t,
                                         const sim::PrefetchAttribution *> &ByTrigger) {
  for (uint64_t Sid : Sids) {
    auto It = ByTrigger.find(Sid);
    if (It == ByTrigger.end())
      continue;
    const sim::PrefetchAttribution &A = *It->second;
    Sum.Spawns += A.Spawns;
    for (unsigned F = 0; F < sim::NumPrefetchFates; ++F)
      Sum.Fates[F] += A.Fates[F];
    Sum.LateCycles += A.LateCycles;
    Sum.MaxChainDepth = std::max(Sum.MaxChainDepth, A.MaxChainDepth);
  }
}

double frac(uint64_t Num, uint64_t Den) {
  return Den == 0 ? 0.0
                  : static_cast<double>(Num) / static_cast<double>(Den);
}

std::string pct(double F) {
  return std::to_string(static_cast<int>(F * 100.0 + 0.5)) + "%";
}

/// Canonical text key of an override map (fixpoint/already-tried checks).
std::string renderOverrides(const std::map<uint64_t, LoadOverride> &Ovs) {
  std::string S;
  for (const auto &[Sid, Ov] : Ovs) {
    S += std::to_string(Sid) + ":" + (Ov.Drop ? "d" : "") +
         (Ov.NoRestartTrigger ? "r" : "") + "m" +
         std::to_string(Ov.MinRegionDepth) + "b" +
         std::to_string(Ov.TripBudgetLog2) + "u" +
         std::to_string(Ov.InnerUnroll) + ";";
  }
  return S;
}

} // namespace

std::map<uint64_t, LoadOverride> core::proposeOverrides(
    const FeedbackPolicy &Policy, const verify::AdaptationManifest &Manifest,
    const std::vector<sim::PrefetchAttribution> &Attrib,
    const std::map<uint64_t, LoadOverride> &Current,
    std::vector<FeedbackDecision> *Decisions) {
  std::unordered_map<uint64_t, const sim::PrefetchAttribution *> ByTrigger;
  for (const sim::PrefetchAttribution &A : Attrib)
    ByTrigger.emplace(A.Trigger, &A);

  std::map<uint64_t, LoadOverride> Next = Current;
  for (const verify::SliceManifest &SM : Manifest.Slices) {
    if (SM.PrimaryLoadSid == 0)
      continue; // Pre-PR manifest without the join key: nothing to do.
    FateSum Cut, Restart;
    accumulate(Cut, SM.CutTriggerSids, ByTrigger);
    accumulate(Restart, SM.RestartTriggerSids, ByTrigger);
    FateSum All = Cut;
    accumulate(All, SM.RestartTriggerSids, ByTrigger);

    uint64_t Accesses = All.accesses();
    if (Accesses < Policy.MinSample)
      continue; // Too little evidence to act on.
    double UsefulFrac = frac(All.useful(), Accesses);
    double LateFrac = frac(All.at(sim::PrefetchFate::UsefulLate),
                           All.useful());
    double EvictFrac = frac(All.at(sim::PrefetchFate::EvictedUnused),
                            Accesses);

    LoadOverride Ov;
    if (auto It = Next.find(SM.PrimaryLoadSid); It != Next.end())
      Ov = It->second;
    std::string Action, Why;

    if (UsefulFrac < Policy.DropUsefulMax) {
      // The slice prefetches but almost nothing is ever consumed usefully:
      // pure pollution and trigger overhead.
      Ov.Drop = true;
      Action = "drop";
      Why = "useful " + pct(UsefulFrac) + " < " +
            pct(Policy.DropUsefulMax);
    } else if (EvictFrac > Policy.ThrottleEvictedMin &&
               Ov.TripBudgetLog2 > Policy.MinTripBudgetLog2) {
      // Prefetches mostly lapse before use: the chain runs too far ahead.
      --Ov.TripBudgetLog2;
      Action = "throttle";
      Why = "evicted-unused " + pct(EvictFrac) + " > " +
            pct(Policy.ThrottleEvictedMin);
    } else if (All.useful() > 0 && LateFrac > Policy.HoistLateMin &&
               SM.RegionDepth + 1 <= Policy.MaxHoistDepth &&
               Ov.MinRegionDepth < SM.RegionDepth + 1) {
      // Useful-late dominates: prefetches arrive, but not early enough.
      // Require the next adaptation to pick a region at least one step
      // further out, spawning the slice earlier.
      Ov.MinRegionDepth = SM.RegionDepth + 1;
      Action = "hoist";
      Why = "useful-late " + pct(LateFrac) + " of useful > " +
            pct(Policy.HoistLateMin) + ", late slack " +
            std::to_string(All.LateCycles) + " cycles";
    } else if (!Ov.NoRestartTrigger && !SM.RestartTriggerSids.empty() &&
               Restart.accesses() > 0 &&
               frac(Restart.useful(), Restart.accesses()) <
                   Policy.RestartUsefulMax &&
               Cut.MaxChainDepth >= Policy.RestartMinCutDepth) {
      // The cut-set trigger sustains deep chains on its own while the
      // restart trigger's re-arms are mostly useless re-prefetches.
      Ov.NoRestartTrigger = true;
      Action = "no-restart";
      Why = "restart useful " +
            pct(frac(Restart.useful(), Restart.accesses())) + " < " +
            pct(Policy.RestartUsefulMax) + ", cut chains reach depth " +
            std::to_string(Cut.MaxChainDepth);
    } else if (All.useful() > 0 && LateFrac <= Policy.DeepenLateMax &&
               EvictFrac <= Policy.ThrottleEvictedMin) {
      // Timely-dominated with no eviction pressure: headroom to run the
      // speculation deeper. Inner-loop members deepen via unrolling;
      // otherwise extend the chain budget.
      if (SM.InnerMembers > 0 &&
          SM.InnerUnroll * 2 <= Policy.MaxInnerUnroll) {
        Ov.InnerUnroll = SM.InnerUnroll * 2;
        Action = "deepen-unroll";
        Why = "useful-late " + pct(LateFrac) + " <= " +
              pct(Policy.DeepenLateMax) + ", inner members " +
              std::to_string(SM.InnerMembers) + ": unroll " +
              std::to_string(SM.InnerUnroll) + " -> " +
              std::to_string(Ov.InnerUnroll);
      } else if (SM.InnerMembers == 0 &&
                 Ov.TripBudgetLog2 < Policy.MaxTripBudgetLog2) {
        ++Ov.TripBudgetLog2;
        Action = "deepen-budget";
        Why = "useful-late " + pct(LateFrac) + " <= " +
              pct(Policy.DeepenLateMax) + ": budget x2^" +
              std::to_string(Ov.TripBudgetLog2);
      }
    }

    if (Action.empty())
      continue;
    // The directive must reach every load the combined slice covers:
    // overriding only the primary would let the rest re-slice separately
    // (and shallower) in the next round.
    Next[SM.PrimaryLoadSid] = Ov;
    for (uint64_t Sid : SM.TargetLoadSids)
      Next[Sid] = Ov;
    if (Decisions)
      Decisions->push_back({SM.PrimaryLoadSid, Action, Why, Ov});
  }
  return Next;
}

FeedbackResult core::runFeedbackLoop(
    const ir::Program &Orig, const profile::ProfileData &PD,
    const ToolOptions &Opts, const sim::MemoryBuilder &BuildMemory,
    const sim::SamplingPlan &Sample, const AnalysisCache *AC) {
  FeedbackResult Res;

  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  Cfg.Sample = Sample;
  auto Simulate = [&](const ir::Program &P) {
    return sim::runProgram(ir::LinkedProgram::link(P), BuildMemory, Cfg)
        .Stats;
  };

  auto RunRound = [&](const std::map<uint64_t, LoadOverride> &Ovs,
                      AdaptationReport &Rep, ir::Program &Out) {
    ToolOptions RoundOpts = Opts;
    RoundOpts.Overrides = Ovs;
    PostPassTool Tool(Orig, PD, RoundOpts);
    Out = Tool.adaptWith(AC, &Rep);
  };

  unsigned MaxRounds = std::max(1u, Opts.FeedbackRounds);
  std::set<std::string> Tried;

  // Round 1: the one-shot adaptation (with whatever overrides the caller
  // seeded — normally none). Always accepted: it is the baseline the
  // monotonic-accept rule may never regress below. A binary with verify
  // errors is never simulated: an unsafe round 1 ends the loop.
  std::map<uint64_t, LoadOverride> CurOvs = Opts.Overrides;
  Tried.insert(renderOverrides(CurOvs));
  AdaptationReport Rep;
  ir::Program Prog;
  RunRound(CurOvs, Rep, Prog);
  bool Unsafe = Rep.VerifyErrors > 0;
  sim::SimStats Stats = Unsafe ? sim::SimStats() : Simulate(Prog);

  uint64_t BestCycles = Stats.Cycles;
  Res.Best = std::move(Prog);
  Res.BestReport = std::move(Rep);
  Res.BestOverrides = CurOvs;
  std::vector<sim::PrefetchAttribution> BestAttrib = Stats.Attribution;
  Res.OneShotSpeedup = frac(PD.BaselineCycles, Stats.Cycles);

  FeedbackRound R1;
  R1.Round = 1;
  R1.Cycles = Stats.Cycles;
  R1.Speedup = Res.OneShotSpeedup;
  R1.Accepted = true;
  Res.Rounds.push_back(std::move(R1));

  while (!Unsafe && Res.Rounds.size() < MaxRounds) {
    // Decisions always derive from the best-so-far binary's attribution:
    // a rejected round cannot steer the policy, and an unchanged best
    // state re-proposes identically — which the Tried set turns into
    // convergence.
    std::vector<FeedbackDecision> Decisions;
    std::map<uint64_t, LoadOverride> Proposed = proposeOverrides(
        Opts.Feedback, Res.BestReport.Manifest, BestAttrib,
        Res.BestOverrides, &Decisions);
    if (!Tried.insert(renderOverrides(Proposed)).second) {
      Res.Fixpoint = true;
      break;
    }

    FeedbackRound R;
    R.Round = static_cast<unsigned>(Res.Rounds.size()) + 1;
    R.Decisions = std::move(Decisions);
    RunRound(Proposed, Rep, Prog);
    if (Rep.VerifyErrors > 0) { // Rejected unsimulated.
      Res.Rounds.push_back(std::move(R));
      continue;
    }
    Stats = Simulate(Prog);
    R.Cycles = Stats.Cycles;
    R.Speedup = frac(PD.BaselineCycles, Stats.Cycles);
    R.Accepted = Stats.Cycles < BestCycles;
    if (R.Accepted) {
      BestCycles = Stats.Cycles;
      Res.Best = std::move(Prog);
      Res.BestReport = std::move(Rep);
      Res.BestOverrides = std::move(Proposed);
      BestAttrib = std::move(Stats.Attribution);
    }
    Res.Rounds.push_back(std::move(R));
  }

  Res.BestSpeedup = frac(PD.BaselineCycles, BestCycles);
  return Res;
}
