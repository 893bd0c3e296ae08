//===- slicer/Slicer.h - Slicing for speculative precomputation -----------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slicing machinery of Section 3.1:
///
///  * Backward, demand-driven slicing of a delinquent load's *address*
///    over data and control dependence edges.
///  * Region-restricted slices: producers outside the target region become
///    slice live-ins rather than slice members (region-based slicing,
///    Section 3.1.1, prunes traversal once the slack is large enough).
///  * Context sensitivity: when the region traversal climbs to a caller
///    through a call site c, the slice continues in the caller just before
///    c — the slice(r, [c1..cn]) formula of Section 3.1, which only builds
///    the slice up the chain of calls on the call stack.
///  * Callee summaries: values produced inside callees are expanded
///    through per-function register summaries (slice summaries of Section
///    3.1.1). A summary's closure stays inside its function, so one pass
///    per register builds it, recursion included.
///  * Control-flow speculative slicing (Section 3.1.2): blocks never
///    executed during profiling are filtered out of the slice, and
///    indirect calls are resolved only to their profiled targets.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SLICER_SLICER_H
#define SSP_SLICER_SLICER_H

#include "analysis/CallGraph.h"
#include "analysis/DependenceGraph.h"
#include "analysis/RegionGraph.h"
#include "analysis/SpecDeps.h"
#include "profile/Profile.h"
#include "support/BitVector.h"

#include <memory>
#include <mutex>
#include <vector>

namespace ssp::slicer {

/// Tuning knobs for slice construction.
struct SliceOptions {
  /// Control-flow speculative slicing: drop never-executed blocks.
  bool Speculative = true;

  /// Reject slices whose address computation takes a memory flow
  /// dependence from a store inside the region (conservative mode; the
  /// default trusts the disambiguator per the paper).
  bool RejectStoreDependent = false;

  /// Hard cap on slice size; bigger slices are marked invalid ("to avoid a
  /// slice becoming too big that often leads to wrong address
  /// calculations", Section 3.4.1).
  unsigned MaxSize = 48;
};

/// A precomputation slice for one (or, after combining, several)
/// delinquent loads, relative to one region.
struct Slice {
  analysis::InstRef PrimaryLoad;              ///< Load that seeded the slice.
  std::vector<analysis::InstRef> TargetLoads; ///< All loads it prefetches.
  std::vector<analysis::InstRef> Insts; ///< Members, program layout order.
  std::vector<ir::Reg> LiveIns;         ///< Values copied through the LIB.
  int RegionIdx = -1;
  bool Interprocedural = false;
  bool Valid = false;
  std::string RejectReason;

  /// May-dependence edges speculatively dropped while building this slice
  /// (sorted, deduplicated). Each producer became a trigger-time live-in
  /// instead of a member; the `speculation.*` verify pass re-derives every
  /// entry against the profile evidence.
  std::vector<analysis::SpecDrop> SpecDrops;

  bool contains(const analysis::InstRef &I) const {
    for (const analysis::InstRef &M : Insts)
      if (M == I)
        return true;
    return false;
  }
};

/// Per-function register summary: for every register the function may
/// define, the slice of its definitions and the entry registers they
/// depend on (the reusable "slice summary" of Section 3.1.1).
struct FuncSummary {
  struct RegInfo {
    std::vector<analysis::InstRef> Insts; ///< Sorted, program layout order.
    std::vector<ir::Reg> EntryDeps;       ///< Sorted by dense index.
  };
  /// Indexed by dense register idx; only indices set in Defined are
  /// populated (dense array + membership bits replace the old ordered map
  /// on the slicer's hottest lookup).
  std::vector<RegInfo> DefinedRegs;
  support::BitVector Defined;

  /// Summary for dense register index \p Dense, or nullptr when the
  /// function never defines it.
  const RegInfo *regInfo(unsigned Dense) const {
    return Defined.size() > Dense && Defined.test(Dense)
               ? &DefinedRegs[Dense]
               : nullptr;
  }
};

/// Demand-driven slicer with summary caching. Copying a Slicer is cheap
/// and shares the summary table, whose slots fill on first use: parallel
/// candidate generation gives each worker thread its own copy, so only the
/// per-slicer scratch buffers are private while every analysis input stays
/// const-shared.
class Slicer {
public:
  /// \p Spec, when non-null and enabled, prunes cold may-dependences
  /// during slice closure (speculation-aware slicing); every drop is
  /// recorded in Slice::SpecDrops.
  Slicer(const analysis::ProgramDeps &Deps, const analysis::RegionGraph &RG,
         const analysis::CallGraph &CG, const profile::ProfileData &PD,
         SliceOptions Opts = SliceOptions(),
         const analysis::SpecDeps *Spec = nullptr);

  /// Computes the slice of \p Load's address restricted to region
  /// \p RegionIdx. \p ContextCallSites is the call-stack context from the
  /// region traversal: empty when the region is in the load's function;
  /// otherwise the call sites crossed climbing outward, innermost first.
  Slice computeSlice(const analysis::InstRef &Load, int RegionIdx,
                     const std::vector<analysis::InstRef> &ContextCallSites =
                         {});

  /// Merges \p B into \p A when they share dependence-graph nodes
  /// (Section 3.4.1: "different slices are combined if they share nodes").
  /// Returns true if merged.
  static bool combineIfOverlapping(Slice &A, const Slice &B);

  /// Unconditionally merges \p B into \p A (same region required). Used to
  /// fuse the slices of one load reached through several calling contexts,
  /// e.g. treeadd's left- and right-child call sites.
  static void mergeInto(Slice &A, const Slice &B);

  /// Summary of \p Func, built by the first call for \p Func from any copy
  /// of this slicer (once, under the slot's std::call_once) and shared by
  /// all of them. It is a pure function of the program, the profile and
  /// SliceOptions::Speculative, so which thread builds it does not matter.
  const FuncSummary &summaryOf(uint32_t Func) const;

private:
  bool blockIsCold(uint32_t Func, uint32_t Block) const;
  bool regionContains(int RegionIdx, uint32_t Func, uint32_t Block) const;
  FuncSummary computeSummary(uint32_t Func) const;

  const analysis::ProgramDeps &Deps;
  const analysis::RegionGraph &RG;
  const analysis::CallGraph &CG;
  const profile::ProfileData &PD;
  SliceOptions Opts;
  const analysis::SpecDeps *Spec;
  /// Function -> summary, each slot built once on first use.
  struct SummaryTable {
    explicit SummaryTable(size_t NumFuncs) : Sums(NumFuncs), Once(NumFuncs) {}
    std::vector<FuncSummary> Sums;
    std::vector<std::once_flag> Once;
  };
  /// Shared by all copies of this slicer.
  std::shared_ptr<SummaryTable> Summaries;
  /// Reused reaching-def id buffer (private per copy, so concurrent
  /// slicers never share scratch).
  std::vector<uint32_t> RDScratch;
};

} // namespace ssp::slicer

#endif // SSP_SLICER_SLICER_H
