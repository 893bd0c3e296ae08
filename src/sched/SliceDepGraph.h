//===- sched/SliceDepGraph.h - Latency-annotated dependence graphs --------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The latency-annotated dependence graph the scheduling algorithms of
/// Section 3.2 operate on: nodes are instructions (of a slice or of a whole
/// region), annotated with latencies (cache-profiled average latency for
/// loads, machine-model latency otherwise; "the latency of a memory
/// operation is determined by cache profiling, and the machine model
/// provides latency estimates for other instructions"). Edges are flow and
/// control dependences classified as intra-iteration or loop-carried with
/// respect to a loop region.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SCHED_SLICEDEPGRAPH_H
#define SSP_SCHED_SLICEDEPGRAPH_H

#include "analysis/DependenceGraph.h"
#include "analysis/RegionGraph.h"
#include "analysis/SpecDeps.h"
#include "profile/Profile.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace ssp::sched {

/// Latency charged to call instructions when computing region heights (a
/// stand-in for interprocedural height analysis; see SliceDepGraph::build).
inline constexpr uint32_t CallLatencyEstimate = 100;

/// Latency assumed for loads inside a *slice* graph: a p-slice runs ahead
/// of the main thread, so its loads miss even where the profiled (main
/// thread) latency was a hit — the profile reflects lines already fetched
/// by earlier main-thread work that the speculative thread will not have.
inline constexpr uint32_t AssumedColdLoadLatency = 232;

/// One node of the dependence graph.
struct DepNode {
  analysis::InstRef Ref;
  uint32_t Latency = 1;
};

/// A dependence graph over an instruction set, with intra-iteration and
/// loop-carried adjacency kept separately.
class SliceDepGraph {
public:
  /// Builds the graph over \p Insts. \p L (nullable) is the loop used for
  /// carried/intra classification; without it every edge is intra. With
  /// \p PessimisticLoads, load latencies are at least
  /// AssumedColdLoadLatency (used for slice graphs; region graphs model
  /// the main thread and use profiled latencies).
  /// \p CallCosts (nullable) gives a per-callee latency estimate for call
  /// instructions, overriding the flat CallLatencyEstimate.
  /// \p Spec (nullable) enables speculation-aware classification: a
  /// loop-carried *data* edge the classifier calls cold is omitted from
  /// the graph entirely (shrinking the critical pre-spawn partition) and
  /// recorded in \p Drops. Control and intra-iteration edges are never
  /// pruned. Region graphs must pass null — they model the main thread.
  static SliceDepGraph build(const analysis::ProgramDeps &Deps,
                             const std::vector<analysis::InstRef> &Insts,
                             const analysis::Loop *L, uint32_t LoopFunc,
                             const profile::ProfileData &PD,
                             bool PessimisticLoads = false,
                             const std::vector<uint32_t> *CallCosts =
                                 nullptr,
                             const analysis::SpecDeps *Spec = nullptr,
                             std::vector<analysis::SpecDrop> *Drops =
                                 nullptr);

  size_t size() const { return Nodes.size(); }
  const DepNode &node(unsigned I) const { return Nodes[I]; }
  const std::vector<DepNode> &nodes() const { return Nodes; }

  /// Forward intra-iteration adjacency (producer -> consumer).
  const std::vector<std::vector<unsigned>> &intraSuccs() const {
    return Intra;
  }
  /// Forward loop-carried adjacency (producer -> next-iteration consumer).
  const std::vector<std::vector<unsigned>> &carriedSuccs() const {
    return Carried;
  }

  /// Index of \p Ref in the node table (its last node if \p Ref repeats),
  /// or -1. A binary search over the nodes' program-wide instruction ids.
  int indexOf(const analysis::InstRef &Ref) const;

  /// Longest latency path from each node to any leaf over intra edges
  /// (the "maximum node height" priority of Section 3.2.1.2.2).
  std::vector<uint64_t> nodeHeights() const;

  /// Height of the whole graph: max over node heights.
  uint64_t height() const;

  /// Sum of all node latencies.
  uint64_t totalLatency() const;

private:
  std::vector<DepNode> Nodes;
  /// (InstIndex id, node) pairs, sorted: the node lookup behind indexOf.
  std::vector<std::pair<uint32_t, unsigned>> Index;
  const analysis::InstIndex *Ids = nullptr;
  std::vector<std::vector<unsigned>> Intra;
  std::vector<std::vector<unsigned>> Carried;
};

/// All instructions of a region (the loop body, or the whole function for
/// procedure regions), in layout order.
std::vector<analysis::InstRef>
regionInstructions(const analysis::RegionGraph &RG, int RegionIdx,
                   const analysis::ProgramDeps &Deps);

/// Average access latency of the static load at \p Ref according to the
/// cache profile, or the L1 latency if unprofiled.
uint32_t profiledLoadLatency(const ir::Program &P,
                             const analysis::InstRef &Ref,
                             const profile::ProfileData &PD);

} // namespace ssp::sched

#endif // SSP_SCHED_SLICEDEPGRAPH_H
