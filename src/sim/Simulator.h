//===- sim/Simulator.h - Cycle-level SMT Itanium simulator ----------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-driven, cycle-level SMT simulator standing in for the
/// paper's SMTSIM/IPFsim infrastructure. It models both research Itanium
/// pipelines of Table 1 over the shared cache hierarchy, the GSHARE/BTB
/// front end, the four hardware thread contexts, the chk.c lightweight
/// exception spawning mechanism and the RSE-backing-store live-in buffer.
///
/// Simulation style: functional-first. Instructions execute architecturally
/// at fetch, so fetch always follows the true path; front-end costs of
/// mispredictions, chk.c exceptions and rfi returns are modeled as
/// fetch-blocking intervals that resolve when the blocking instruction
/// issues (in-order) or retires (out-of-order), naturally charging the
/// pipeline-refill penalty of the 12/16-stage pipes.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_SIMULATOR_H
#define SSP_SIM_SIMULATOR_H

#include "branch/BranchPredictor.h"
#include "cache/Cache.h"
#include "ir/DenseSidMap.h"
#include "ir/Program.h"
#include "mem/SimMemory.h"
#include "sim/CompletionCalendar.h"
#include "sim/Executor.h"
#include "sim/MachineConfig.h"
#include "sim/PrefetchTable.h"
#include "sim/SimStats.h"
#include "sim/ThreadContext.h"
#include "sim/WrittenRegs.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ssp::obs {
class TraceSink;
} // namespace ssp::obs

namespace ssp::sim {

/// Runs one program to completion on one machine configuration.
class Simulator {
public:
  /// \p Mem is the initial data image; it is mutated by the run.
  Simulator(const MachineConfig &Cfg, const ir::LinkedProgram &LP,
            mem::SimMemory &Mem);

  /// Simulates until the main thread halts and returns the statistics.
  /// With Cfg.Sample enabled this is the two-level sampled run (detailed
  /// intervals alternating with functional fast-forward/warming, stats
  /// extrapolated); otherwise the exact detailed simulation.
  SimStats run();

  /// Attaches an event-trace sink (null detaches). Off by default: with no
  /// sink attached the simulator executes no tracing code beyond the null
  /// checks at the emission sites, and the architectural statistics are
  /// identical either way.
  void setTraceSink(obs::TraceSink *Sink) { Trace = Sink; }

private:
  /// What event re-enables fetch for a thread blocked on this instruction.
  enum class ResumeEvent : uint8_t { None, AtIssue, AtRetire };

  /// One fetched instruction flowing through the pipeline. Fields are
  /// ordered widest first so padding stays small.
  struct InstSlot {
    const ir::LinkedInst *LI = nullptr;
    const ir::DecodedInst *DI = nullptr; ///< Predecoded form of *LI.
    ExecOutcome Out;
    uint64_t FetchCycle = 0;
    uint64_t EligibleCycle = 0; ///< Earliest issue/dispatch cycle.
    uint64_t CompleteCycle = 0;

    // OOO operand tracking. At dispatch each use binds to its in-flight
    // producer (at most two are bound) and joins that producer's wakeup
    // list; NumProd counts the producers still in flight, and
    // OperandReadyCycle the ready cycle of the operands resolved so far.
    // A producer's list starts at (FirstWaiter, FirstWaiterIdx); consumer
    // C continues it through (C->NextWaiter[I], C->NextWaiterIdx[I]),
    // where I is the operand link binding C to that producer.
    uint64_t OperandReadyCycle = 0;
    InstSlot *NextDue = nullptr; ///< Thread::Calendar's link.
    InstSlot *FirstWaiter = nullptr;
    InstSlot *NextWaiter[2] = {nullptr, nullptr};
    uint8_t FirstWaiterIdx = 0;
    uint8_t NextWaiterIdx[2] = {0, 0};
    uint8_t NumProd = 0;

    uint32_t ResumeDelay = 0; ///< Set with Resume; read only then.
    ResumeEvent Resume = ResumeEvent::None;
    bool Completed = false;
  };

  /// One context's in-flight instructions in program order: the ROB
  /// (out-of-order pipeline only) followed by the front queue, in a
  /// fixed ring whose slots never move, so other structures may point
  /// into it until retirement. Dispatch moves the boundary between the
  /// two instead of copying the slot. A spawn's live-in frame waits in a
  /// side buffer parallel to the ring, so the slots stay small.
  class InstWindow {
  public:
    /// Empties the window and sizes it for at least \p N instructions.
    void setCapacity(size_t N) {
      size_t C = 1;
      while (C < N)
        C <<= 1;
      Buf.assign(C, InstSlot());
      Frames.assign(C, SpawnFrame());
      Mask = C - 1;
      clear();
    }
    void clear() { Head = Disp = Tail = 0; }
    bool empty() const { return Head == Tail; }

    // The front (expansion/decode) queue: fetched, not yet issued
    // (in-order) or dispatched (out-of-order).
    bool frontEmpty() const { return Disp == Tail; }
    size_t frontSize() const { return Tail - Disp; }
    InstSlot &frontHead() { return Buf[Disp & Mask]; }
    const InstSlot &frontHead() const { return Buf[Disp & Mask]; }
    /// Appends a recycled slot for fetch to fill in. Only the fields a
    /// later stage reads before writing are reset; rebuilding the whole
    /// slot for every fetched instruction was a measurable host cost.
    /// Fetch writes LI, DI, FetchCycle, EligibleCycle and (through
    /// executeStep) all of Out; issue writes CompleteCycle and NextDue,
    /// which are read only once the slot is in the calendar or Completed
    /// is set; dispatch writes the operand-tracking fields; and
    /// ResumeDelay is read only with the Resume that sets it.
    InstSlot &fetchSlot() {
      assert(Tail - Head <= Mask && "instruction window overflow");
      InstSlot &S = Buf[Tail++ & Mask];
      S.FirstWaiter = nullptr;
      S.Resume = ResumeEvent::None;
      S.Completed = false;
      return S;
    }
    /// In-order issue: the front-queue head leaves the pipeline.
    void popFront() { Head = ++Disp; }
    /// Out-of-order dispatch: the front-queue head joins the ROB.
    InstSlot &dispatchFront() { return Buf[Disp++ & Mask]; }

    // The ROB: dispatched, not yet retired.
    bool robEmpty() const { return Head == Disp; }
    size_t robSize() const { return Disp - Head; }
    InstSlot &robHead() { return Buf[Head & Mask]; }
    const InstSlot &robHead() const { return Buf[Head & Mask]; }
    void retire() { ++Head; }

    /// Position of ROB entry \p S counted from the oldest (0 = robHead).
    uint64_t robAge(const InstSlot &S) const {
      return (static_cast<uint64_t>(&S - Buf.data()) - Head) & Mask;
    }
    /// The live-in frame of the spawn in slot \p S, written at fetch.
    uint64_t *spawnFrame(const InstSlot &S) {
      return Frames[static_cast<size_t>(&S - Buf.data())].data();
    }

  private:
    using SpawnFrame = std::array<uint64_t, ir::LIBSlots>;
    std::vector<InstSlot> Buf;
    std::vector<SpawnFrame> Frames; ///< Parallel to Buf.
    uint64_t Mask = 0;
    uint64_t Head = 0; ///< Oldest ROB entry.
    uint64_t Disp = 0; ///< Front-queue head; the ROB is [Head, Disp).
    uint64_t Tail = 0; ///< Next fetch slot; the front queue is [Disp, Tail).
  };

  /// Per-hardware-context simulation state. Whether the context is live
  /// is its bit in Simulator::LiveMask.
  struct Thread {
    bool Speculative = false;
    bool FetchStopped = false; ///< Saw halt/kill; no further fetch.
    /// The chk.c whose firing (transitively) created this speculative
    /// thread: the trigger record its prefetches are charged to.
    ir::StaticId OriginTrigger = 0;
    /// Main thread only: the most recently fired chk.c (the stub's spawn
    /// attributes its thread to it).
    ir::StaticId LastFiredTrigger = 0;
    /// Speculative threads: the StaticId of the spawn target's first
    /// instruction (which slice this thread runs) and how many spawns deep
    /// in the chain it is (a directly-spawned thread has depth 1). Both
    /// feed the prefetch-lifecycle attribution.
    ir::StaticId SliceSid = 0;
    uint32_t SpawnDepth = 0;
    ThreadContext Ctx;

    InstWindow Window; ///< The ROB and the front queue.

    // OOO event indexes into the ROB. Each phase touches only entries with
    // something due:
    size_t RsCount = 0; ///< Dispatched, not issued (RS occupancy).
    /// The RS entries with no producer in flight, oldest first: added at
    /// dispatch and at the wakeup that clears their last producer. Only
    /// these can issue. Issue nulls the entries it issues, then drops them.
    std::vector<InstSlot *> RsNoProd;
    /// Issued, not completed, filed by CompleteCycle.
    CompletionCalendar<InstSlot> Calendar;
    /// Earliest OperandReadyCycle in RsNoProd; UINT64_MAX if it is empty.
    uint64_t RsReadyAt = UINT64_MAX;

    uint64_t FetchResumeCycle = 0;
    bool FetchWaitingOnEvent = false;

    uint64_t LastFetchCycle = 0;
    uint64_t LastIssueCycle = 0;
    /// In-order only: the earliest cycle the front-queue head that last
    /// stalled can issue, max(EligibleCycle, RegReady of its uses). The
    /// thread is no issue candidate before it. Exact because a stalled
    /// in-order thread issues nothing, so none of its registers changes.
    uint64_t IssueReadyAt = 0;

    // In-order scoreboard: cycle each register becomes available, plus the
    // cache level that produced it (for Figure 10 stall classification).
    uint64_t RegReady[ir::Reg::NumDenseIndices] = {};
    uint8_t RegSrcLevel[ir::Reg::NumDenseIndices] = {};

    // OOO rename map: in-flight producer of each register, if any.
    InstSlot *RegProd[ir::Reg::NumDenseIndices] = {};

    /// Speculative contexts: the registers fetch has seen defined since
    /// the last reset. Every index of Ctx.Regs, RegReady, RegSrcLevel and
    /// RegProd outside it still holds its reset value. The main context
    /// is never reset and leaves it empty.
    WrittenRegs Written;

    void resetForSpawn() {
      Written.drain([this](unsigned I) {
        Ctx.Regs[I] = 0;
        RegReady[I] = 0;
        RegSrcLevel[I] = 0;
        RegProd[I] = nullptr;
      });
      Ctx.Regs[ThreadContext::P0Index] = 1; // p0 is hardwired true.
      Ctx.resetControl();
      Window.clear();
      RsCount = 0;
      RsNoProd.clear();
      Calendar.clear();
      RsReadyAt = UINT64_MAX;
      IssueReadyAt = 0;
      FetchResumeCycle = 0;
      FetchWaitingOnEvent = false;
      FetchStopped = false;
    }
  };

  // Pipeline phases.
  void fetchCycle();
  unsigned fetchThread(unsigned Tid, unsigned MaxBundles);
  void issueCycleInOrder();
  unsigned issueFromThreadInOrder(unsigned Tid, unsigned MaxBundles,
                                  unsigned FUUsed[]);
  void oooWriteback();
  void oooRetire();
  void oooIssue();
  void oooDispatch();
  unsigned oooDispatchThread(unsigned Tid, unsigned MaxBundles);
  CycleCat classifyCycle() const;
  /// Earliest cycle after Now at which any pipeline state can change, the
  /// min over: (a) fetch-resume cycles; (b) front-queue head eligibility;
  /// (c) the scoreboard ready-cycles a stalled in-order head waits on;
  /// (d) the earliest due cycle in each OOO context's completion
  /// calendar; (e) each OOO context's RsReadyAt (its earliest-issuable RS
  /// entry); (f) outstanding main-thread misses and active streams; (g)
  /// with throttling on, the next throttle-evaluation boundary. Every term
  /// is O(1) per live context.
  /// Returns Now + 1 if nothing is pending (the livelock guard in run()
  /// then fires as in serial mode).
  uint64_t nextEventCycle() const;

  // Helpers.
  void applyIssueTiming(unsigned Tid, InstSlot &S);
  void fireResume(unsigned Tid, const InstSlot &S);
  void trySpawn(const ExecOutcome &Out, const uint64_t *Frame,
                unsigned SpawnerTid);
  bool hasFreeContext() const { return LiveMask != AllContexts; }
  /// Whether dynamic throttling currently disables trigger \p Sid (a
  /// chk.c then reports no free context; a stream trigger is ignored).
  bool triggerThrottled(ir::StaticId Sid) const;
  /// Attribution and throttle bookkeeping around one data access.
  void noteDataAccess(unsigned Tid, const InstSlot &S,
                      const cache::AccessResult &R);
  /// The speculative-touch half of noteDataAccess, shared with the stream
  /// engine: attribution and throttle bookkeeping for one speculative
  /// touch of \p Line.
  void notePrefetchTouch(unsigned Tid, uint64_t Line,
                         const PrefetchOrigin &O,
                         const cache::AccessResult &R);
  /// Records one resolved prefetch fate in \p Origin's per-trigger rollup.
  void countFate(const PrefetchOrigin &Origin, PrefetchFate Fate,
                 uint64_t LateCycles = 0);
  /// Resolves every still-pending tracked line as evicted-unused (wild
  /// entries as wild); used before overflow clears and at end of run.
  void drainPendingFates();
  /// Periodic per-trigger verdicts; runs only with throttling on.
  void evaluateThrottle();
  bool mainMissOutstanding() const;
  /// Drops the outstanding main-thread misses that have expired. Called
  /// only once the earliest of them has (MainOutstandingExpiry <= Now).
  void pruneMainOutstanding();

  // Main-loop structure. stepCycle is one full simulated cycle (all
  // pipeline phases plus Figure 10 accounting and idle-span skipping);
  // runDetailedLoop steps until the main thread halts or its issued
  // instruction count reaches \p StopMainInsts (UINT64_MAX = run to
  // completion, the exact unsampled path).
  void stepCycle();
  void runDetailedLoop(uint64_t StopMainInsts);
  /// Steps with fetch disabled until every thread's front queue and ROB
  /// are empty: the end-of-detail-interval drain, after which only
  /// architectural state (plus caches/predictor) carries forward.
  void drainPipeline();
  bool pipelineEmpty() const;
  /// End-of-run bookkeeping for the exact path: pending prefetch fates,
  /// attribution copy-out, final counter snapshots.
  void finalizeExact();
  /// The two-level sampled run (Cfg.Sample enabled); see DESIGN.md.
  SimStats runSampled();

  // Owned by value: callers routinely pass a temporary (e.g.
  // MachineConfig::inOrder()) whose lifetime ends before run().
  const MachineConfig Cfg;
  const ir::LinkedProgram &LP;
  mem::SimMemory &Mem;
  cache::CacheHierarchy Cache;
  branch::BranchPredictor Bpred;
  std::vector<Thread> Threads;
  /// Bit Tid set while context Tid is live (a spawned thread until its
  /// kill retires; the main thread throughout). Per-cycle phases walk the
  /// set bits in ascending Tid, the order a walk over Threads had.
  uint32_t LiveMask = 1;
  const uint32_t AllContexts;
  SimStats Stats;

  uint64_t Now = 0;
  bool MainDone = false;
  /// Set during drainPipeline: fetch stops so in-flight instructions
  /// retire without new ones entering (sampled interval boundaries).
  bool FetchDisabled = false;
  /// Whether the current cycle fetched, issued, dispatched, completed or
  /// retired anything; an idle (false) cycle is a candidate for skipping.
  bool ActivityThisCycle = false;
  unsigned IssuedThisCycle[8] = {};
  std::vector<std::pair<uint64_t, cache::Level>> MainOutstanding;
  /// Earliest ready cycle in MainOutstanding; UINT64_MAX if it is empty.
  uint64_t MainOutstandingExpiry = UINT64_MAX;

  /// Reused issue-candidate buffer for oooIssue (hoisted out of the
  /// per-cycle hot path; cleared, never shrunk).
  struct Cand {
    InstSlot *S;
    unsigned Tid;
    unsigned Idx; ///< Its position in Threads[Tid].RsNoProd.
  };
  std::vector<Cand> ReadyBuf;

  /// One trigger's prefetch-lifecycle rollup (copied into
  /// SimStats::Attribution) and, only with throttling on (Section 4.4.1),
  /// its evaluation-period state.
  struct TriggerRecord {
    PrefetchAttribution Rollup;
    uint64_t PeriodTouches = 0;  ///< Speculative touches this period.
    uint64_t PeriodTracked = 0;  ///< Touches that moved a line from L3/mem.
    uint64_t UsefulAtVerdict = 0; ///< Rollup.useful() at the last verdict.
    uint64_t InFlight = 0; ///< Tracked lines not yet consumed (a chain may
                           ///< legitimately run far ahead; its pending
                           ///< lines count as presumed useful).
    uint64_t DisabledUntil = 0;
  };
  /// One record per origin trigger, keyed by trigger StaticId in
  /// first-spawn order: no hashing on the chk.c and speculative-access
  /// paths.
  ir::DenseSidMap<TriggerRecord> Triggers;
  PrefetchedLineTable PrefetchedLines;

  /// Event-trace sink; null (the default) disables tracing entirely.
  obs::TraceSink *Trace = nullptr;

  // --- Stream engine (descriptor-executed slices; see ir/Stream.h) ---

  /// A descriptor bound to its stub, resolved at construction.
  struct StreamInfo {
    const ir::StreamDescriptor *Desc = nullptr;
    /// StaticId of the first slice instruction the stub would have
    /// spawned; tags attribution records like Thread::SliceSid does.
    ir::StaticId SliceSid = 0;
  };
  /// One running activation.
  struct ActiveStream {
    const ir::StreamDescriptor *Desc = nullptr;
    ir::StaticId Trigger = 0; ///< chk.c that activated this stream.
    ir::StaticId Slice = 0;
    unsigned Tid = 0;         ///< Triggering thread (trace/cache tagging).
    uint64_t Addr = 0;        ///< Affine/Indirect: next index address;
                              ///< Chase: current pointer.
    uint64_t VBaseVal = 0;    ///< Captured gather base value (Indirect).
    uint32_t StepsDone = 0;
    uint32_t Depth = 0;       ///< Steps this activation runs.
    uint64_t ReadyCycle = 0;  ///< Next step not before this cycle.
    /// Indirect: gathers whose index load is still in flight, as
    /// (ready cycle, gather address).
    std::vector<std::pair<uint64_t, uint64_t>> Pending;
  };

  /// Fires when a stream-covered chk.c executes (it took the ChkCNop
  /// path): activates the descriptor, capturing live-ins from \p Tid.
  void noteStreamTrigger(const StreamInfo &SI, unsigned Tid,
                         ir::StaticId TriggerSid);
  /// Advances every active stream by up to StreamIssueWidth steps and
  /// services due gathers; runs once per simulated cycle.
  void stepStreams();
  /// One speculative cache touch on behalf of stream \p AS.
  void streamTouch(const ActiveStream &AS, uint64_t Addr,
                   cache::AccessResult *ROut = nullptr);

  /// Stub start address -> descriptor, built at construction (empty
  /// unless the binary carries descriptors and Cfg.EnableStreamEngine).
  std::unordered_map<uint32_t, StreamInfo> StreamByStubAddr;
  std::vector<ActiveStream> ActiveStreams;
};

} // namespace ssp::sim

#endif // SSP_SIM_SIMULATOR_H
