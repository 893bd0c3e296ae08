//===- sim/MachineConfig.h - Research Itanium machine models --------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two research Itanium machine models of the paper (Table 1): an
/// in-order 12-stage SMT pipeline and an out-of-order 16-stage SMT pipeline,
/// both with four hardware thread contexts, fetching and issuing two bundles
/// per cycle from one thread or one bundle each from two threads.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_MACHINECONFIG_H
#define SSP_SIM_MACHINECONFIG_H

#include "cache/Cache.h"
#include "sim/Sampling.h"

#include <cstdint>
#include <unordered_set>

namespace ssp::sim {

enum class PipelineKind : uint8_t { InOrder, OutOfOrder };

/// SMT fetch arbitration policy. RoundRobin rotates among ready threads;
/// ICount (Tullsen et al., the policy of the SMTSIM lineage the paper's
/// simulator derives from) prioritizes the thread with the fewest
/// instructions in the pre-issue stages, which starves stalled threads of
/// fetch bandwidth.
enum class FetchPolicy : uint8_t { RoundRobin, ICount };

/// Full machine configuration. Defaults reproduce the paper's Table 1.
/// The parameters no experiment varies are constants: the static members
/// below, the function-unit counts (ir::unitsOf) and the bundle width
/// (ir::BundleSlots).
struct MachineConfig {
  PipelineKind Pipeline = PipelineKind::InOrder;

  unsigned NumThreads = 4;

  /// Fetch/issue policy: 2 bundles from 1 thread, or 1 each from 2 threads.
  static constexpr unsigned FetchBundlesPerCycle = 2;
  FetchPolicy Fetch = FetchPolicy::RoundRobin;
  static constexpr unsigned IssueBundlesPerCycle = 2;

  /// In-order: per-thread 16-bundle expansion queue.
  static constexpr unsigned ExpansionQueueBundles = 16;

  /// OOO: per-thread 255-entry reorder buffer, 18-entry reservation station.
  static constexpr unsigned RobEntries = 255;
  static constexpr unsigned RsEntries = 18;

  /// Extra restart delay after a chk.c exception or rfi redirect, on top of
  /// the natural pipeline-refill cost.
  static constexpr unsigned ExceptionRestartDelay = 4;

  /// Dynamic SSP throttling (the paper's Section 4.4.1 future-work idea:
  /// monitor the coverage and timeliness of each trigger's prefetch
  /// threads; a trigger whose threads do not reduce latency makes future
  /// chk.c checks report no available context). Disabled by default, as
  /// in the paper. Its period, sample floor, credit bar and penalty are
  /// constants next to Simulator::evaluateThrottle; with it off the
  /// simulator does no throttle work at all.
  bool EnableSSPThrottle = false;

  /// Stream engine: when the adapted binary carries StreamDescriptors
  /// (ssp-adapt --streams), a chk.c whose stub is covered by a descriptor
  /// activates the descriptor directly instead of raising the spawn
  /// exception — no pipeline flush, no context occupied, no slice
  /// fetch/decode. A binary without descriptors behaves bit-identically
  /// either way. Off replays the p-slices instead: the reference the
  /// engine is tested against.
  bool EnableStreamEngine = true;
  /// Concurrently active descriptor activations; activations beyond this
  /// are ignored like a chk.c with no free context.
  static constexpr unsigned MaxActiveStreams = 8;
  /// Descriptor steps advanced per cycle across all active streams.
  static constexpr unsigned StreamIssueWidth = 2;
  /// Per-activation bound on steps (clamps the descriptor's Depth).
  static constexpr uint32_t MaxStreamDepth = 64;

  /// Safety bound on simulated cycles; a field so that a caller can give
  /// one run a smaller cycle budget.
  uint64_t MaxCycles = 4000000000ULL;

  /// Event-driven idle-cycle skipping: when a cycle fetches, issues,
  /// dispatches, completes and retires nothing, jump straight to the next
  /// cycle at which anything can happen, bulk-accounting the skipped span.
  /// Produces bit-identical SimStats either way (enforced by skip_test);
  /// disable (`--no-skip` in the tools) to cross-check or to step the
  /// simulator cycle by cycle under a debugger.
  bool SkipIdleCycles = true;

  /// Two-level sampled simulation (`--sample=W:D:F[:R]` in the tools): when
  /// the plan is enabled, detailed intervals alternate with functional
  /// fast-forward/warming intervals and whole-run statistics are
  /// extrapolated from the detailed ones (see sim/Sampling.h and the
  /// DESIGN.md "Sampled simulation" section). The default (disabled)
  /// plan is the plain exact simulator.
  SamplingPlan Sample;

  cache::CacheConfig Cache;

  /// Idealizations for Figure 2.
  bool PerfectMemory = false;
  std::unordered_set<ir::StaticId> PerfectLoads;

  /// Pipeline depth: 12 stages in order, 16 out of order (the OOO model
  /// adds four front-end stages for renaming/scheduling).
  unsigned pipelineDepth() const {
    return Pipeline == PipelineKind::InOrder ? 12 : 16;
  }

  /// Cycles from fetch to issue eligibility: the front-end portion of the
  /// pipeline. This is what a misprediction or exception redirect pays to
  /// refill.
  unsigned frontLatency() const {
    return Pipeline == PipelineKind::InOrder ? 8 : 12;
  }

  bool operator==(const MachineConfig &) const = default;

  static MachineConfig inOrder() { return MachineConfig(); }
  static MachineConfig outOfOrder() {
    MachineConfig C;
    C.Pipeline = PipelineKind::OutOfOrder;
    return C;
  }
};

} // namespace ssp::sim

#endif // SSP_SIM_MACHINECONFIG_H
