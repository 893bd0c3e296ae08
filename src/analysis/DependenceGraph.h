//===- analysis/DependenceGraph.h - Data/control/memory dependences -------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function dependence information: register data dependences (via
/// reaching definitions), control dependences (via post-dominance), and
/// memory flow dependences. Backward traversal over these edges is the
/// slicing primitive of Section 3.1; loop-carried classification of edges
/// drives the chaining-SP scheduler of Section 3.2.
///
/// Memory disambiguation: a load takes a flow dependence from a store only
/// when both use the same base register and displacement. This plays the
/// role of the production compiler's static disambiguator, which the paper
/// reports as effective (reference [11]); the workloads' address
/// computations read from pointer structures that the loop does not mutate,
/// matching the measurements of Aamodt et al. cited in Section 4.1 (0.87
/// stores per slice on average).
///
/// Every edge this analysis reports is conservative ("may"); the
/// speculation layer (analysis/SpecDeps.h) refines the view with a
/// must/hot/cold taxonomy when profile evidence is available:
///
///   * **must** edges have an intra-iteration component — a register def
///     reaches its use over a back-edge-free path inside their innermost
///     common loop, the endpoints are in different functions, or a
///     memorySources store precedes its load in the same block. The
///     consumers here (Slicer, SliceDepGraph) always honor them.
///   * **hot**/**cold** are the remaining may-edges — purely loop-carried
///     register flows and cross-block disambiguator-approved store->load
///     pairs — split by observed dynamic activation ratio. Only *cold*
///     edges are prunable, and only by consumers that record a SpecDrop
///     for the `speculation.*` verification pass.
///
/// In particular a memorySources result is prunable exactly when the pair
/// is cross-block (or backward within a block) and the profile shows the
/// store's value reaching the load in at most threshold * trips of the
/// load's executions; dataSources/controlSources edges are never pruned
/// here — pruning happens in the consumers against the SpecDeps oracle.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_ANALYSIS_DEPENDENCEGRAPH_H
#define SSP_ANALYSIS_DEPENDENCEGRAPH_H

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/InstIndex.h"
#include "analysis/InstRef.h"
#include "analysis/Loops.h"
#include "analysis/ReachingDefs.h"

#include <memory>
#include <mutex>
#include <vector>

namespace ssp::analysis {

/// Dependence analysis results for one function. The CFG, dominators and
/// loops are built by the constructor (the region graph numbers every
/// function's loops). Reaching definitions and control dependences are
/// built on the first query that needs them, each under its own
/// std::call_once: threads sharing one FunctionDeps build each at most once
/// and all see the same result. Edge queries are computed on demand.
class FunctionDeps {
public:
  FunctionDeps(const ir::Program &P, uint32_t Func);

  const CFG &cfg() const { return G; }
  const DomTree &doms() const { return Dom; }
  const LoopInfo &loops() const { return LI; }
  const ReachingDefs &reachingDefs() const;
  uint32_t funcIndex() const { return Func; }

  /// Intra-function producers of \p I's register uses (flow dependences).
  std::vector<InstRef> dataSources(const InstRef &I) const;

  /// Branch instructions \p I is control dependent on.
  std::vector<InstRef> controlSources(const InstRef &I) const;

  /// Stores that may feed \p I when it is a load (same base + displacement
  /// disambiguation; see file comment).
  std::vector<InstRef> memorySources(const InstRef &I) const;

  /// Register uses of \p I whose value may come from the caller.
  std::vector<ir::Reg> liveInUses(const InstRef &I) const;

  /// True if \p Def reaches \p Use along some path inside loop \p L that
  /// does not traverse a back edge: the dependence has an intra-iteration
  /// component. When false, a def->use dependence between them is purely
  /// loop-carried.
  bool reachesWithoutBackedge(const InstRef &Def, const InstRef &Use,
                              const Loop &L) const;

private:
  /// Block -> the branch blocks it is control dependent on.
  const std::vector<std::vector<uint32_t>> &controlDeps() const;

  const ir::Program &P;
  uint32_t Func;
  CFG G;
  DomTree Dom;
  LoopInfo LI;
  mutable std::once_flag RDOnce;
  mutable ReachingDefs RD;
  mutable std::once_flag CtrlOnce;
  mutable std::vector<std::vector<uint32_t>> CtrlDeps;
};

/// Dependence analyses for a whole program: one FunctionDeps per function,
/// built by the constructor. Its lazily built pieces fill once per function
/// on first use (see FunctionDeps), so parallel candidate generation and
/// the serving daemon's warm cache const-share one ProgramDeps across
/// worker threads with no other synchronization, and every result is the
/// same whichever thread builds it.
class ProgramDeps {
public:
  explicit ProgramDeps(const ir::Program &P) : P(P), Index(P) {
    Cache.reserve(P.numFuncs());
    for (uint32_t F = 0; F < P.numFuncs(); ++F)
      Cache.push_back(std::make_unique<FunctionDeps>(P, F));
  }

  const FunctionDeps &forFunction(uint32_t Func) const {
    return *Cache[Func];
  }

  const ir::Program &program() const { return P; }

  /// Program-wide dense instruction ids (layout order).
  const InstIndex &instIndex() const { return Index; }

private:
  const ir::Program &P;
  InstIndex Index;
  std::vector<std::unique_ptr<FunctionDeps>> Cache;
};

} // namespace ssp::analysis

#endif // SSP_ANALYSIS_DEPENDENCEGRAPH_H
