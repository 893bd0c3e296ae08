//===- profile/Profile.h - Profiling feedback for the post-pass tool ------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling feedback of the paper's two-pass flow (Figure 1): the
/// original binary is run once to collect (a) block and edge frequencies
/// and the dynamic call graph for indirect calls (a fast functional pass),
/// and (b) the cache profile of every static load plus the baseline cycle
/// count (a timing pass on the baseline in-order model). The tool consumes
/// this ProfileData to identify delinquent loads, filter unexecuted paths
/// during speculative slicing, estimate trip counts, and weigh trigger
/// placements.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_PROFILE_PROFILE_H
#define SSP_PROFILE_PROFILE_H

#include "analysis/CallGraph.h"
#include "analysis/InstRef.h"
#include "analysis/Loops.h"
#include "analysis/SpecDeps.h"
#include "cache/Cache.h"
#include "ir/Program.h"
#include "mem/SimMemory.h"
#include "sim/SimStats.h"

#include <cstdint>
#include <map>
#include <vector>

namespace ssp::profile {

/// All profiling feedback for one program.
struct ProfileData {
  /// Dynamic execution count per (function, block).
  std::vector<std::vector<uint64_t>> BlockCounts;

  /// Dynamic count per intra-function CFG edge (from, to), per function.
  std::vector<std::map<std::pair<uint32_t, uint32_t>, uint64_t>> EdgeCounts;

  /// Dynamic call graph for indirect call sites: flat records sorted by
  /// (Site, Callee), as CallGraph::build consumes them.
  std::vector<analysis::IndirectCallTarget> IndirectTargets;

  /// Dynamic counts of direct call sites, sorted by Site.
  std::vector<analysis::DirectCallCount> CallSiteCounts;

  /// Per-static-load cache behaviour from the baseline timing run, in the
  /// run's insertion order. Sparse, unlike the simulator's
  /// cache::CacheProfile: a parsed `load` record's id sizes no table.
  ir::SparseSidMap<cache::PcCacheStats> Loads;

  /// Baseline cycles of the timing run that produced `Loads`.
  uint64_t BaselineCycles = 0;

  /// Observed dynamic memory flow edges: (store sid, load sid) with the
  /// number of executions in which the load read that store's last write
  /// to its address. Sorted by (From, To); same-function pairs only.
  std::vector<analysis::DepEdgeCount> MemDepCounts;

  /// Observed dynamic register flow edges that are candidates for
  /// loop-carried speculation: (def sid, use sid) activation counts for
  /// flows that cross a block boundary or wrap around within one block.
  /// Intra-block forward flows are omitted (always must-dependences).
  /// Sorted by (From, To); same-function pairs only.
  std::vector<analysis::DepEdgeCount> RegDepCounts;

  /// Per (function, instruction Id) dynamic execution counts — the trip
  /// denominator of the dependence classifier. Block counts cannot serve
  /// that role: a block containing a call is counted again when the return
  /// resumes it, so an every-iteration edge would look half-activated.
  /// Collected together with the dependence evidence below.
  std::vector<analysis::InstCountRow> InstCounts;

  /// True once a functional run collected the dependence evidence above.
  /// Profiles predating the evidence records parse with this false, which
  /// disables may-dep pruning (analysis::SpecDeps::enabled).
  bool HasDepEvidence = false;

  /// Per-trigger prefetch-lifecycle rollups from simulating an *adapted*
  /// binary (`ssp-sim --emit-attrib`, `fates` records) — the evidence the
  /// closed-loop feedback policy consumes (core/Feedback.h). Keyed by the
  /// chk.c trigger's StaticId in the adapted binary; sorted by Trigger.
  std::vector<sim::PrefetchAttribution> Attrib;

  /// True once an `attrib 1` marker declared attribution records (possibly
  /// zero of them). Absent in legacy profiles, which simply carry no
  /// feedback evidence.
  bool HasAttrib = false;

  /// The flat evidence view analysis::SpecDeps consumes.
  analysis::DepEvidence depEvidence() const {
    analysis::DepEvidence Ev;
    Ev.MemDeps = &MemDepCounts;
    Ev.RegDeps = &RegDepCounts;
    Ev.InstCounts = &InstCounts;
    Ev.Collected = HasDepEvidence;
    return Ev;
  }

  uint64_t blockCount(uint32_t Func, uint32_t Block) const {
    if (Func >= BlockCounts.size() || Block >= BlockCounts[Func].size())
      return 0;
    return BlockCounts[Func][Block];
  }

  uint64_t edgeCount(uint32_t Func, uint32_t From, uint32_t To) const {
    if (Func >= EdgeCounts.size())
      return 0;
    auto It = EdgeCounts[Func].find({From, To});
    return It == EdgeCounts[Func].end() ? 0 : It->second;
  }

  /// Average iterations per entry of \p L, from header and entry-edge
  /// counts; returns \p Fallback when the loop never ran.
  double tripCountOf(uint32_t Func, const analysis::Loop &L,
                     double Fallback = 1.0) const;
};

/// Runs the program functionally (no timing) on \p Mem and returns the
/// control-flow portion of the profile. \p MaxInsts bounds the run.
ProfileData collectControlFlowProfile(const ir::LinkedProgram &LP,
                                      mem::SimMemory &Mem,
                                      uint64_t MaxInsts = 1ULL << 32);

/// Folds the cache profile and cycle count of a baseline timing run into
/// \p PD.
void addCacheProfile(ProfileData &PD, const sim::SimStats &Stats);

/// One load selected for speculative precomputation.
struct DelinquentLoad {
  analysis::InstRef Ref;
  ir::StaticId Sid = 0;
  uint64_t MissCycles = 0;
  uint64_t L1Misses = 0;
  double AvgLatency = 0.0;
};

/// Ranks static loads by miss cycles and returns the smallest prefix that
/// covers at least \p Coverage of all miss cycles (paper: the top loads
/// contributing >= 90% of cache misses), capped at \p MaxLoads.
std::vector<DelinquentLoad>
selectDelinquentLoads(const ir::Program &P, const ProfileData &PD,
                      double Coverage = 0.90, unsigned MaxLoads = 10);

/// Maps the StaticIds of a program to instruction positions (cache
/// profiles are keyed by StaticId). One flat table per function, indexed
/// by instruction id and sized by the function's largest id. If a function
/// repeats an id (an ill-formed program), the last one in layout order
/// wins.
class StaticIdIndex {
public:
  explicit StaticIdIndex(const ir::Program &P);

  /// Position of the instruction carrying \p Sid, or nullptr when the
  /// program has none.
  const analysis::InstRef *find(ir::StaticId Sid) const;

private:
  /// Function -> first slot of its row, plus one end entry.
  std::vector<size_t> RowStart;
  /// Concatenated rows; an unused id's slot has Func == ~0u.
  std::vector<analysis::InstRef> Slots;
};

} // namespace ssp::profile

#endif // SSP_PROFILE_PROFILE_H
