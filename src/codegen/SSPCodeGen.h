//===- codegen/SSPCodeGen.h - SSP-enabled binary rewriting ----------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary rewriting backend (Section 3.4.2 / Figure 7). For every
/// adapted load the rewriter emits, appended after the trigger's function:
///
///   * a *stub block* — the chk.c recovery code run by the main thread:
///     copy the live-in values into the live-in buffer, spawn the first
///     slice thread, and rfi back to the interrupted instruction; and
///   * *slice blocks* — the p-slice run by the speculative thread: copy
///     live-ins from the LIB, execute the critical sub-slice, stage the
///     next iteration's live-ins, conditionally chain-spawn, execute the
///     non-critical sub-slice, prefetch the delinquent addresses, and
///     kill the thread.
///
/// Triggers are installed by inserting chk.c instructions at the planned
/// positions (the paper replaces an existing nop slot; inserting is
/// equivalent in this IR since bundle padding is implicit).
///
/// Emitted p-slices are if-converted straight-line code: control
/// dependences inside the slice are speculated through (their branches are
/// dropped), in the spirit of control-flow speculative slicing — a wrong
/// speculative path can only produce a useless prefetch, never corrupt
/// state. The spawn gate is the one synthesized branch.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CODEGEN_SSPCODEGEN_H
#define SSP_CODEGEN_SSPCODEGEN_H

#include "sched/Scheduler.h"
#include "slicer/Slicer.h"
#include "trigger/TriggerPlacer.h"
#include "verify/Manifest.h"

#include <cstdint>
#include <vector>

namespace ssp::codegen {

/// Everything the rewriter needs for one installed slice.
struct AdaptedLoad {
  slicer::Slice Slice;
  sched::ScheduledSlice Sched;
  trigger::TriggerPlan Plan;
  /// Chain budget (iterations) when the spawn condition is predicted or
  /// absent; derived from the profiled trip count.
  uint64_t TripBudget = 64;
  /// Total emission count for inner-loop members (see
  /// ScheduledSlice::InnerLoopMembers).
  unsigned InnerUnroll = 2;
  /// Outward steps the region traversal took to reach the slice's region
  /// (recorded into the manifest for the feedback audit).
  unsigned RegionDepth = 0;
  /// Additional per-calling-context sections (basic SP only): each is
  /// emitted after a fresh live-in reload, so sections may redefine the
  /// same registers (e.g. treeadd's left- and right-child chains).
  std::vector<sched::ScheduledSlice> ExtraSections;
  /// Prefetch targets per extra section (parallel to ExtraSections).
  std::vector<std::vector<analysis::InstRef>> ExtraTargets;
};

/// Statistics about one rewrite.
struct RewriteInfo {
  unsigned TriggersInserted = 0;
  unsigned StubBlocks = 0;
  unsigned SliceBlocks = 0;
  unsigned SliceInsts = 0; ///< Instructions emitted into slice blocks.
  unsigned StreamDescriptors = 0; ///< Slices classified as stream patterns.
};

/// Produces the SSP-enhanced binary: a clone of \p Orig with triggers
/// inserted and stub/slice attachments appended. Static ids of original
/// instructions are preserved. The result is not checked here: the
/// pipeline PostPassTool::adapt runs is its one structural check.
///
/// When \p Manifest is non-null it is filled with the rewrite *plan*
/// (planned prefetch targets, trip budgets, trigger count, block
/// placement), recorded from the AdaptedLoad inputs rather than from the
/// emitted code: the verification pipeline diffs plan against emission, so
/// an emission bug that drops a prefetch or the budget staging is caught.
///
/// With \p EnableStreams, every chained budget-bounded slice is run through
/// analysis::classifyStream; slices matching a regular pattern get a
/// StreamDescriptor attached to the program (and mirrored into the
/// manifest), which the simulator's stream engine executes directly at
/// trigger time. Off by default: the emitted binary is then bit-identical
/// to an adaptation without classification.
ir::Program rewriteWithSlices(const ir::Program &Orig,
                              const std::vector<AdaptedLoad> &Loads,
                              RewriteInfo *Info = nullptr,
                              verify::AdaptationManifest *Manifest = nullptr,
                              bool EnableStreams = false);

} // namespace ssp::codegen

#endif // SSP_CODEGEN_SSPCODEGEN_H
