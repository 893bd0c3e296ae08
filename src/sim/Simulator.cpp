//===- sim/Simulator.cpp - Cycle-level SMT Itanium simulator --------------===//

#include "sim/Simulator.h"

#include "obs/TraceSink.h"
#include "sim/ExecCore.h"
#include "support/Assert.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

using namespace ssp;
using namespace ssp::sim;
using namespace ssp::ir;

namespace {

/// Stable insertion sort for the small arbitration arrays: the per-cycle
/// thread orders (at most NumThreads entries) and the OOO issue candidates
/// (at most NumThreads x RsEntries, usually a handful). Equal keys keep
/// their input order, so the result never depends on the library's sort.
template <typename T, typename LessT>
void sortSmall(T *Begin, size_t N, LessT Less) {
  for (size_t I = 1; I < N; ++I) {
    T V = Begin[I];
    size_t J = I;
    while (J > 0 && Less(V, Begin[J - 1])) {
      Begin[J] = Begin[J - 1];
      --J;
    }
    Begin[J] = V;
  }
}

/// Instruction slots in one thread's expansion queue.
constexpr size_t QueueCap =
    MachineConfig::ExpansionQueueBundles * BundleSlots;

} // namespace

Simulator::Simulator(const MachineConfig &Cfg, const LinkedProgram &LP,
                     mem::SimMemory &Mem)
    : Cfg(Cfg), LP(LP), Mem(Mem), Cache(Cfg.Cache, Cfg.NumThreads),
      Bpred(Cfg.NumThreads), Threads(Cfg.NumThreads),
      AllContexts(static_cast<uint32_t>((uint64_t(1) << Cfg.NumThreads) - 1)) {
  assert(Cfg.NumThreads >= 1 && Cfg.NumThreads <= 8 &&
         "the arbitration arrays hold at most 8 contexts");
  Cache.setPerfectMemory(Cfg.PerfectMemory);
  Cache.setPerfectLoads(Cfg.PerfectLoads);
  for (Thread &T : Threads)
    T.Window.setCapacity(QueueCap + (Cfg.Pipeline == PipelineKind::OutOfOrder
                                         ? Cfg.RobEntries
                                         : 0));
  Threads[0].Speculative = false;
  Threads[0].Ctx.PC = LP.entry();

  // Bind stream descriptors to their stub addresses. A chk.c targeting a
  // covered stub is served by the stream engine instead of raising the
  // spawn exception. Binaries without descriptors leave the map empty and
  // every simulation path bit-identical to pre-stream builds.
  if (Cfg.EnableStreamEngine) {
    for (const StreamDescriptor &D : LP.streams()) {
      StreamInfo SI;
      SI.Desc = &D;
      // The slice sid is what the stub's spawn would have tagged threads
      // with: the first instruction of the spawn target block.
      uint32_t Addr = LP.blockStart(D.Func, D.StubBlock);
      for (uint32_t A = Addr;
           A < LP.size() && LP.at(A).Func == D.Func &&
           LP.at(A).Block == D.StubBlock;
           ++A)
        if (LP.decoded(A).Op == Opcode::Spawn) {
          SI.SliceSid = LP.at(LP.at(A).TargetAddr).Sid;
          break;
        }
      StreamByStubAddr.emplace(Addr, SI);
    }
  }
}

bool Simulator::triggerThrottled(StaticId Sid) const {
  if (!Cfg.EnableSSPThrottle)
    return false;
  auto It = Triggers.find(Sid);
  return It != Triggers.end() && It->second.DisabledUntil > Now;
}

// Dynamic throttling: every ThrottlePeriod cycles (time-based, so the
// consumption credits of far-ahead chains have a full period to arrive),
// each trigger with ThrottleMinTouches touches in the period whose credit
// falls below ThrottleMinCredit of its demand is disabled for
// ThrottleDisableCycles.
constexpr uint64_t ThrottlePeriod = 16384;
static_assert((ThrottlePeriod & (ThrottlePeriod - 1)) == 0);
constexpr uint64_t ThrottleMinTouches = 64;
constexpr double ThrottleMinCredit = 0.25;
constexpr uint64_t ThrottleDisableCycles = 100000;

void Simulator::evaluateThrottle() {
  // Periodic verdicts: in steady state, a healthy chain's per-period
  // consumption credits keep pace with its prefetches; a useless one
  // (cache-resident data) accumulates touches without credits.
  for (auto &[Sid, R] : Triggers) {
    // Two failure signatures: (a) the trigger's threads touch memory but
    // almost never move a line up from L3/memory (the data is cached
    // anyway), or (b) the lines they do move are neither consumed timely
    // nor still awaiting consumption (a healthy long-range chain is
    // *supposed* to be far ahead, so pending lines count as presumed
    // useful).
    if (R.PeriodTouches < ThrottleMinTouches)
      continue; // Too small a sample; let it accumulate.
    // Credits (timely consumptions plus lines still pending) must keep
    // pace with the work: the demand is the tracked lines, but a trigger
    // whose threads touch plenty while moving almost nothing is judged
    // against its touch volume instead (cache-resident data).
    double Demand = std::max<double>(static_cast<double>(R.PeriodTracked),
                                     static_cast<double>(R.PeriodTouches) / 8);
    uint64_t Useful = R.Rollup.useful() - R.UsefulAtVerdict;
    if (static_cast<double>(Useful + R.InFlight) <
        ThrottleMinCredit * Demand) {
      R.DisabledUntil = Now + ThrottleDisableCycles;
      ++Stats.ThrottleEvents;
      if (Trace)
        Trace->record(0, obs::EventKind::Throttle, Now, 0, Sid, 0);
    }
    R.PeriodTouches = 0;
    R.PeriodTracked = 0;
    R.UsefulAtVerdict = R.Rollup.useful();
  }
}

void Simulator::countFate(const PrefetchOrigin &Origin, PrefetchFate Fate,
                          uint64_t LateCycles) {
  PrefetchAttribution &A = Triggers[Origin.Trigger].Rollup;
  if (A.Slice == 0)
    A.Slice = Origin.Slice;
  if (Origin.Depth > A.MaxChainDepth)
    A.MaxChainDepth = Origin.Depth;
  ++A.Fates[static_cast<unsigned>(Fate)];
  A.LateCycles += LateCycles;
}

void Simulator::drainPendingFates() {
  PrefetchedLines.forEach([this](uint64_t, const PrefetchOrigin &O) {
    countFate(O, O.Wild ? PrefetchFate::Wild : PrefetchFate::EvictedUnused);
  });
}

void Simulator::notePrefetchTouch(unsigned Tid, uint64_t Line,
                                  const PrefetchOrigin &O,
                                  const cache::AccessResult &R) {
  // A speculative touch is a prefetch on behalf of its trigger.
  ++Stats.SpecPrefetches;
  if (O.Trigger == 0)
    return;
  // Only a touch that actually moved the line up from L3/memory can be
  // credited later: touching an already-near line is the signature of
  // a useless prefetch (the data was cached anyway).
  bool MovedLine = R.ServedBy == cache::Level::L3 ||
                   R.ServedBy == cache::Level::Mem;
  bool Fresh = false; // Newly tracked, not a re-prefetch of a tracked line.
  if (MovedLine) {
    if (PrefetchedLines.size() > (1u << 16)) {
      drainPendingFates(); // Lapsing entries were never consumed.
      PrefetchedLines.clear(); // Bound the table; stale entries lapse.
      if (Cfg.EnableSSPThrottle)
        for (auto &[Sid, Rec] : Triggers)
          Rec.InFlight = 0;
    }
    PrefetchOrigin Prev;
    Fresh = PrefetchedLines.insertOrAssign(Line, O, &Prev);
    if (!Fresh)
      // The earlier prefetch of this line was superseded before any
      // consumption: a redundant re-prefetch (its in-flight count stays).
      countFate(Prev, Prev.Wild ? PrefetchFate::Wild
                                : PrefetchFate::Redundant);
    if (Trace)
      Trace->record(Tid, obs::EventKind::Prefetch, Now, 0, Line, O.Trigger,
                    static_cast<uint32_t>(R.ServedBy));
  } else {
    // The line was already near: this access resolves immediately.
    countFate(O, O.Wild ? PrefetchFate::Wild : PrefetchFate::Redundant);
  }
  if (!Cfg.EnableSSPThrottle)
    return;
  TriggerRecord &Rec = Triggers[O.Trigger];
  ++Rec.PeriodTouches;
  Rec.PeriodTracked += MovedLine;
  Rec.InFlight += Fresh;
}

void Simulator::noteDataAccess(unsigned Tid, const InstSlot &S,
                               const cache::AccessResult &R) {
  uint64_t Line = S.Out.MemAddr / Cfg.Cache.L1.LineBytes;
  Thread &T = Threads[Tid];
  if (T.Speculative) {
    notePrefetchTouch(Tid, Line,
                      PrefetchOrigin{T.OriginTrigger, T.SliceSid,
                                     T.SpawnDepth, S.Out.WildLoad},
                      R);
    return;
  }
  if (!S.Out.IsLoad)
    return;
  // Main-thread consumption: a prefetched line consumed quickly counts as
  // a timely ("useful") prefetch for its trigger.
  PrefetchOrigin *Origin = PrefetchedLines.find(Line);
  if (!Origin)
    return;
  // Any consumption ends the line's wait. The count floors at 0 because
  // a superseded line's in-flight count stayed with the earlier trigger.
  if (Cfg.EnableSSPThrottle) {
    uint64_t &InFlight = Triggers[Origin->Trigger].InFlight;
    if (InFlight > 0)
      --InFlight;
  }
  // The prefetch helped if the main thread did not pay a full memory
  // access for the line: it was still cached at some level (TLB penalties
  // are the main thread's own) or the fetch was at least in flight.
  PrefetchFate Fate;
  if (R.Partial)
    Fate = PrefetchFate::UsefulLate;
  else if (R.ServedBy != cache::Level::Mem)
    Fate = PrefetchFate::UsefulTimely;
  else
    Fate = Origin->Wild ? PrefetchFate::Wild : PrefetchFate::EvictedUnused;
  if (Fate == PrefetchFate::UsefulTimely || Fate == PrefetchFate::UsefulLate)
    ++Stats.UsefulPrefetches;
  // Useful-late consumptions record the residual latency the main thread
  // still paid as timeliness slack shortfall.
  countFate(*Origin, Fate,
            Fate == PrefetchFate::UsefulLate ? R.Latency : 0);
  if (Trace)
    Trace->record(Tid, obs::EventKind::Retire, Now, 0, Line,
                  Origin->Trigger, static_cast<uint32_t>(Fate));
  PrefetchedLines.erase(Line);
}

void Simulator::trySpawn(const ExecOutcome &Out, const uint64_t *Frame,
                         unsigned SpawnerTid) {
  const Thread &Spawner = Threads[SpawnerTid];
  ir::StaticId Origin = Spawner.Speculative ? Spawner.OriginTrigger
                                            : Spawner.LastFiredTrigger;
  if (hasFreeContext()) {
    // The lowest free context, as a scan over Threads would pick.
    const unsigned NewTid =
        static_cast<unsigned>(std::countr_zero(~LiveMask & AllContexts));
    Thread &T = Threads[NewTid];
    T.resetForSpawn();
    LiveMask |= 1u << NewTid;
    T.Speculative = true;
    T.OriginTrigger = Origin;
    // Attribution tags: which slice this context runs and how deep in the
    // spawn chain it sits (a chained slice re-spawning itself deepens it).
    T.SliceSid = LP.at(Out.SpawnTargetAddr).Sid;
    T.SpawnDepth = Spawner.Speculative ? Spawner.SpawnDepth + 1 : 1;
    T.Ctx.PC = Out.SpawnTargetAddr;
    std::memcpy(T.Ctx.LIBIn, Frame, sizeof(T.Ctx.LIBIn));
    // The new context begins fetching next cycle.
    T.FetchResumeCycle = Now + 1;
    if (Origin != 0) {
      PrefetchAttribution &A = Triggers[Origin].Rollup;
      ++A.Spawns;
      if (A.Slice == 0)
        A.Slice = T.SliceSid;
      if (T.SpawnDepth > A.MaxChainDepth)
        A.MaxChainDepth = T.SpawnDepth;
    }
    if (Trace)
      Trace->record(NewTid, obs::EventKind::Spawn, Now, 0, Origin,
                    T.SliceSid, T.SpawnDepth);
    ++Stats.SpawnsSucceeded;
    return;
  }
  ++Stats.SpawnsDropped;
}

//===----------------------------------------------------------------------===//
// Stream engine (descriptor-executed slices)
//===----------------------------------------------------------------------===//

void Simulator::noteStreamTrigger(const StreamInfo &SI, unsigned Tid,
                                  ir::StaticId TriggerSid) {
  // Dynamic throttling covers stream triggers exactly like spawning ones:
  // the engine's touches feed the same per-trigger record.
  if (triggerThrottled(TriggerSid)) {
    ++Stats.TriggersIgnored;
    return;
  }
  // One activation per descriptor at a time: re-triggering while the
  // stream still runs means the chain is already ahead.
  for (const ActiveStream &AS : ActiveStreams)
    if (AS.Desc == SI.Desc)
      return;
  if (ActiveStreams.size() >= Cfg.MaxActiveStreams) {
    ++Stats.TriggersIgnored; // Like a chk.c with no free context.
    return;
  }
  const StreamDescriptor &D = *SI.Desc;
  const ThreadContext &Ctx = Threads[Tid].Ctx;
  auto RegVal = [&](Reg R) -> uint64_t {
    return R.isValid() ? Ctx.Regs[R.denseIndex()] : 0;
  };
  ActiveStream AS;
  AS.Desc = SI.Desc;
  AS.Trigger = TriggerSid;
  AS.Slice = SI.SliceSid;
  AS.Tid = Tid;
  AS.Addr = RegVal(D.AddrBase) +
            RegVal(D.AddrInd) * static_cast<uint64_t>(D.AddrMul) +
            static_cast<uint64_t>(D.AddrAdd);
  AS.VBaseVal = RegVal(D.ValBase);
  AS.Depth = std::min(D.Depth, Cfg.MaxStreamDepth);
  AS.ReadyCycle = Now + 1;
  ActiveStreams.push_back(std::move(AS));
  ++Stats.TriggersFired;
  ++Stats.StreamActivations;
  PrefetchAttribution &A = Triggers[TriggerSid].Rollup;
  if (A.Slice == 0)
    A.Slice = SI.SliceSid;
  if (A.MaxChainDepth < 1)
    A.MaxChainDepth = 1;
  if (Trace)
    Trace->record(Tid, obs::EventKind::Trigger, Now, 0, TriggerSid, 1);
}

void Simulator::streamTouch(const ActiveStream &AS, uint64_t Addr,
                            cache::AccessResult *ROut) {
  cache::AccessResult R =
      Cache.access(Addr, Now, AS.Slice, AS.Tid, /*CollectProfile=*/false);
  notePrefetchTouch(AS.Tid, Addr / Cfg.Cache.L1.LineBytes,
                    PrefetchOrigin{AS.Trigger, AS.Slice, /*Depth=*/1,
                                   /*Wild=*/false},
                    R);
  if (ROut)
    *ROut = R;
}

void Simulator::stepStreams() {
  if (ActiveStreams.empty())
    return;
  unsigned Budget = Cfg.StreamIssueWidth;
  for (size_t I = 0; I < ActiveStreams.size();) {
    ActiveStream &AS = ActiveStreams[I];
    const StreamDescriptor &D = *AS.Desc;
    // Service gathers whose index load has arrived (completions: these do
    // not consume issue budget).
    for (size_t P = 0; P < AS.Pending.size();) {
      if (AS.Pending[P].first <= Now) {
        uint64_t G = AS.Pending[P].second;
        for (int64_t Off : D.PrefetchOffsets)
          streamTouch(AS, G + static_cast<uint64_t>(Off));
        AS.Pending.erase(AS.Pending.begin() +
                         static_cast<ptrdiff_t>(P));
      } else {
        ++P;
      }
    }
    // Advance the recurrence while budget and readiness allow.
    while (Budget > 0 && AS.StepsDone < AS.Depth && AS.ReadyCycle <= Now) {
      --Budget;
      ++AS.StepsDone;
      ++Stats.StreamSteps;
      switch (D.Kind) {
      case StreamKind::Affine:
        for (int64_t Off : D.PrefetchOffsets)
          streamTouch(AS, AS.Addr + static_cast<uint64_t>(Off));
        AS.Addr += static_cast<uint64_t>(D.Stride);
        AS.ReadyCycle = Now + 1;
        break;
      case StreamKind::Chase: {
        uint64_t La = AS.Addr + static_cast<uint64_t>(D.ChaseOff);
        cache::AccessResult R;
        streamTouch(AS, La, &R);
        bool Mapped = false;
        uint64_t V = Mem.readMaybe(La, Mapped);
        if (!Mapped || V == 0) {
          AS.StepsDone = AS.Depth; // End of the chain.
          break;
        }
        for (int64_t Off : D.PrefetchOffsets)
          streamTouch(AS, V + static_cast<uint64_t>(Off));
        AS.Addr = V;
        // The next link dereferences this one's result: the chase is
        // serialized on the link load's latency.
        AS.ReadyCycle = std::max(R.ReadyCycle, Now + 1);
        break;
      }
      case StreamKind::Indirect: {
        cache::AccessResult R;
        streamTouch(AS, AS.Addr, &R);
        if (D.PrefetchIndex)
          for (int64_t Off : D.IdxPrefetchOffsets)
            if (Off != 0)
              streamTouch(AS, AS.Addr + static_cast<uint64_t>(Off));
        bool Mapped = false;
        uint64_t V = Mem.readMaybe(AS.Addr, Mapped);
        if (!Mapped) {
          AS.StepsDone = AS.Depth;
          break;
        }
        uint64_t G = AS.VBaseVal +
                     (((V * static_cast<uint64_t>(D.ValMul)) & D.ValMask)
                      << D.ValShift) +
                     static_cast<uint64_t>(D.ValAdd);
        // The gather address depends on the index value: its touches wait
        // until the index load would have returned.
        AS.Pending.push_back({std::max(R.ReadyCycle, Now + 1), G});
        AS.Addr += static_cast<uint64_t>(D.Stride);
        AS.ReadyCycle = Now + 1;
        break;
      }
      }
    }
    if (AS.StepsDone >= AS.Depth && AS.Pending.empty())
      ActiveStreams.erase(ActiveStreams.begin() + static_cast<ptrdiff_t>(I));
    else
      ++I;
  }
}

//===----------------------------------------------------------------------===//
// Fetch (shared by both pipelines)
//===----------------------------------------------------------------------===//

void Simulator::fetchCycle() {
  if (FetchDisabled)
    return; // Draining an interval boundary: no new instructions enter.
  // Candidate threads, least-recently-fetched first.
  unsigned Order[8];
  unsigned N = 0;
  for (uint32_t Live = LiveMask; Live; Live &= Live - 1) {
    const unsigned Tid = static_cast<unsigned>(std::countr_zero(Live));
    const Thread &T = Threads[Tid];
    if (T.FetchStopped || T.FetchWaitingOnEvent)
      continue;
    if (Now < T.FetchResumeCycle)
      continue;
    if (T.Window.frontSize() >= QueueCap)
      continue;
    Order[N++] = Tid;
  }
  if (Cfg.Fetch == FetchPolicy::ICount) {
    // ICOUNT: fewest in-flight pre-issue instructions first.
    sortSmall(Order, N, [this](unsigned A, unsigned B) {
      size_t IA = Threads[A].Window.frontSize() + Threads[A].RsCount;
      size_t IB = Threads[B].Window.frontSize() + Threads[B].RsCount;
      if (IA != IB)
        return IA < IB;
      return Threads[A].LastFetchCycle < Threads[B].LastFetchCycle;
    });
  } else {
    sortSmall(Order, N, [this](unsigned A, unsigned B) {
      if (Threads[A].LastFetchCycle != Threads[B].LastFetchCycle)
        return Threads[A].LastFetchCycle < Threads[B].LastFetchCycle;
      return A < B;
    });
  }

  unsigned BundlesLeft = Cfg.FetchBundlesPerCycle;
  unsigned ThreadsUsed = 0;
  for (unsigned I = 0; I < N && BundlesLeft > 0 && ThreadsUsed < 2; ++I) {
    unsigned Cap = ThreadsUsed == 0 ? BundlesLeft : 1;
    unsigned Got = fetchThread(Order[I], Cap);
    if (Got > 0) {
      ++ThreadsUsed;
      BundlesLeft -= Got;
      Threads[Order[I]].LastFetchCycle = Now;
      ActivityThisCycle = true;
    }
  }
}

unsigned Simulator::fetchThread(unsigned Tid, unsigned MaxBundles) {
  Thread &T = Threads[Tid];
  unsigned Bundles = 0;

  while (Bundles < MaxBundles) {
    if (T.Window.frontSize() >= QueueCap || T.FetchStopped ||
        T.FetchWaitingOnEvent)
      break;
    uint32_t CurBundle = LP.at(T.Ctx.PC).BundleId;
    bool FetchedAny = false;
    bool EndCycle = false;

    while (T.Window.frontSize() < QueueCap) {
      if (LP.at(T.Ctx.PC).BundleId != CurBundle)
        break; // Bundle boundary.

      InstSlot &S = T.Window.fetchSlot();
      S.LI = &LP.at(T.Ctx.PC);
      S.DI = &LP.decoded(T.Ctx.PC); // Before executeStep advances the PC.
      if (T.Speculative) // The main context is never reset.
        T.Written.note(*S.DI);
      S.FetchCycle = Now;
      S.EligibleCycle = Now + Cfg.frontLatency();
      uint64_t FetchPC = T.Ctx.PC;

      // Only chk.c reads Fire. A chk.c whose stub is covered by a stream
      // descriptor never raises the spawn exception: the descriptor is
      // activated directly (below, on the nop path), skipping the
      // flush/refill the exception costs.
      const StreamInfo *SI = nullptr;
      bool Fire = false;
      if (S.DI->Op == Opcode::ChkC) {
        auto StreamIt = StreamByStubAddr.find(S.LI->TargetAddr);
        if (StreamIt != StreamByStubAddr.end())
          SI = &StreamIt->second;
        else
          Fire = hasFreeContext() && !triggerThrottled(S.LI->Sid);
      }
      detail::executeStepInline(T.Ctx, LP, Mem, T.Speculative, Fire, S.Out);
      FetchedAny = true;

      bool InOrder = Cfg.Pipeline == PipelineKind::InOrder;
      switch (S.Out.Kind) {
      case CtrlKind::SpawnPoint:
        std::memcpy(T.Window.spawnFrame(S), T.Ctx.LIBStage,
                    sizeof(T.Ctx.LIBStage));
        break;
      case CtrlKind::Fall:
      case CtrlKind::ChkCNop:
        if (S.Out.Kind == CtrlKind::ChkCNop) {
          if (SI)
            noteStreamTrigger(*SI, Tid, S.LI->Sid);
          else
            ++Stats.TriggersIgnored;
        }
        break;
      case CtrlKind::Branch: {
        bool Correct =
            Bpred.predictAndTrainDirection(FetchPC, Tid, S.Out.Taken);
        if (!Correct) {
          S.Resume = ResumeEvent::AtIssue; // Resolves at execute.
          S.ResumeDelay = 1;
          T.FetchWaitingOnEvent = true;
        }
        if (S.Out.Taken)
          EndCycle = true; // Taken transfers end the cycle's fetch.
        break;
      }
      case CtrlKind::DirectJump:
        EndCycle = true; // Statically known target: no bubble beyond this.
        break;
      case CtrlKind::IndirectJump: {
        bool Correct = Bpred.predictAndTrainTarget(FetchPC, T.Ctx.PC);
        if (!Correct) {
          S.Resume = ResumeEvent::AtIssue;
          S.ResumeDelay = 1;
          T.FetchWaitingOnEvent = true;
        }
        EndCycle = true;
        break;
      }
      case CtrlKind::ChkCFired:
        T.LastFiredTrigger = S.LI->Sid;
        if (Trace)
          Trace->record(Tid, obs::EventKind::Trigger, Now, 0, S.LI->Sid, 0);
        // The spawn exception is taken at retirement; the hardware
        // predicts "no exception" so fetch is not stalled until then —
        // the cost is a full pipeline flush and refill when it fires.
        // Modeled as a redirect charged at issue, deepened by the
        // pipeline depth on the OOO model.
        ++Stats.TriggersFired;
        S.Resume = ResumeEvent::AtIssue;
        S.ResumeDelay = Cfg.ExceptionRestartDelay +
                        (InOrder ? 0 : Cfg.pipelineDepth());
        T.FetchWaitingOnEvent = true;
        break;
      case CtrlKind::RfiReturn:
        S.Resume = ResumeEvent::AtIssue;
        S.ResumeDelay = InOrder ? 1 : Cfg.pipelineDepth();
        T.FetchWaitingOnEvent = true;
        break;
      case CtrlKind::Halt:
      case CtrlKind::Kill:
        T.FetchStopped = true;
        break;
      }

      if (T.FetchWaitingOnEvent || T.FetchStopped) {
        EndCycle = true;
        break;
      }
      if (EndCycle)
        break;
    }

    if (FetchedAny)
      ++Bundles;
    if (EndCycle || T.FetchStopped || T.FetchWaitingOnEvent)
      break;
    if (!FetchedAny)
      break; // Queue full.
  }
  return Bundles;
}

//===----------------------------------------------------------------------===//
// Issue-time effects (shared)
//===----------------------------------------------------------------------===//

void Simulator::applyIssueTiming(unsigned Tid, InstSlot &S) {
  Thread &T = Threads[Tid];
  const DecodedInst &D = *S.DI;
  uint64_t Complete = Now + D.Latency;
  cache::Level ServedBy = cache::Level::L1;

  if (S.Out.IsMem) {
    bool Collect = !T.Speculative && S.Out.IsLoad;
    cache::AccessResult R =
        Cache.access(S.Out.MemAddr, Now, S.LI->Sid, Tid, Collect);
    ServedBy = R.ServedBy;
    noteDataAccess(Tid, S, R);
    if (S.Out.IsLoad) {
      Complete = R.ReadyCycle;
      if (!T.Speculative && R.ServedBy != cache::Level::L1) {
        MainOutstanding.push_back({R.ReadyCycle, R.ServedBy});
        MainOutstandingExpiry = std::min(MainOutstandingExpiry, R.ReadyCycle);
      }
    } else {
      // Stores and prefetches occupy the port but never block the thread.
      Complete = Now + 1;
    }
    if (S.Out.WildLoad)
      ++Stats.SpecWildLoads;
  }

  S.CompleteCycle = Complete;
  if (Cfg.Pipeline == PipelineKind::OutOfOrder) {
    // Completion is always in the future (latencies and store/prefetch
    // port occupancy are >= 1): the entry waits in the calendar.
    T.Calendar.push(&S);
  }

  // In-order scoreboard update (harmless for OOO; its consumers use the
  // rename map instead).
  if (D.Def != DecodedInst::NoReg) {
    T.RegReady[D.Def] = Complete;
    T.RegSrcLevel[D.Def] =
        S.Out.IsLoad ? 1 + static_cast<uint8_t>(ServedBy) : 0;
  }

  if (S.Out.HasSpawn)
    trySpawn(S.Out, T.Window.spawnFrame(S), Tid);

  if (S.Resume == ResumeEvent::AtIssue)
    fireResume(Tid, S);

  if (S.Out.Kind == CtrlKind::Halt && !T.Speculative)
    MainDone = true;

  if (T.Speculative)
    ++Stats.SpecInsts;
  else
    ++Stats.MainInsts;
  ++IssuedThisCycle[Tid];
  ActivityThisCycle = true;
}

void Simulator::fireResume(unsigned Tid, const InstSlot &S) {
  Thread &T = Threads[Tid];
  T.FetchWaitingOnEvent = false;
  T.FetchResumeCycle = Now + S.ResumeDelay;
}

//===----------------------------------------------------------------------===//
// In-order issue
//===----------------------------------------------------------------------===//

void Simulator::issueCycleInOrder() {
  unsigned FUUsed[5] = {0, 0, 0, 0, 0};

  unsigned Order[8];
  unsigned N = 0;
  for (uint32_t Live = LiveMask; Live; Live &= Live - 1) {
    const unsigned Tid = static_cast<unsigned>(std::countr_zero(Live));
    const Thread &T = Threads[Tid];
    // A thread whose head is known to stall this cycle would issue
    // nothing, so leaving it out changes no arbitration outcome.
    if (!T.Window.frontEmpty() && T.IssueReadyAt <= Now)
      Order[N++] = Tid;
  }
  sortSmall(Order, N, [this](unsigned A, unsigned B) {
    if (Threads[A].LastIssueCycle != Threads[B].LastIssueCycle)
      return Threads[A].LastIssueCycle < Threads[B].LastIssueCycle;
    return A < B;
  });

  unsigned BundlesLeft = Cfg.IssueBundlesPerCycle;
  unsigned ThreadsUsed = 0;
  for (unsigned I = 0; I < N && BundlesLeft > 0 && ThreadsUsed < 2; ++I) {
    unsigned Cap = ThreadsUsed == 0 ? BundlesLeft : 1;
    unsigned Got = issueFromThreadInOrder(Order[I], Cap, FUUsed);
    if (Got > 0) {
      ++ThreadsUsed;
      BundlesLeft -= Got;
      Threads[Order[I]].LastIssueCycle = Now;
    }
  }
}

unsigned Simulator::issueFromThreadInOrder(unsigned Tid, unsigned MaxBundles,
                                           unsigned FUUsed[]) {
  Thread &T = Threads[Tid];
  unsigned Bundles = 0;
  uint64_t CurBundle = UINT64_MAX;

  while (!T.Window.frontEmpty()) {
    InstSlot &S = T.Window.frontHead();
    // In-order stall-on-use: the head blocks until it is eligible and its
    // operands are ready. Record when that is, so issueCycleInOrder passes
    // the thread over until then.
    const DecodedInst &D = *S.DI;
    uint64_t ReadyAt = S.EligibleCycle;
    for (unsigned U = 0; U < D.NumUses; ++U)
      ReadyAt = std::max(ReadyAt, T.RegReady[D.Uses[U]]);
    if (ReadyAt > Now) {
      T.IssueReadyAt = ReadyAt;
      break;
    }

    // Starting a new bundle requires budget.
    if (S.LI->BundleId != CurBundle && Bundles == MaxBundles)
      break;

    unsigned &Used = FUUsed[static_cast<unsigned>(D.FU)];
    if (Used >= unitsOf(D.FU))
      break;

    if (S.LI->BundleId != CurBundle) {
      CurBundle = S.LI->BundleId;
      ++Bundles;
    }
    ++Used;

    applyIssueTiming(Tid, S);
    bool WasKill = S.Out.Kind == CtrlKind::Kill;
    T.Window.popFront();
    if (WasKill) {
      LiveMask &= ~(1u << Tid);
      break;
    }
  }
  return Bundles;
}

//===----------------------------------------------------------------------===//
// Out-of-order pipeline phases
//===----------------------------------------------------------------------===//

void Simulator::oooWriteback() {
  for (uint32_t Live = LiveMask; Live; Live &= Live - 1) {
    Thread &T = Threads[std::countr_zero(Live)];
    // Everything a completion changes is a max, a min, an age-ordered
    // insertion or a write guarded by the rename map, so the calendar may
    // hand out the due completions in any order.
    for (InstSlot *Due = T.Calendar.popDue(Now); Due; Due = Due->NextDue) {
      InstSlot &S = *Due;
      S.Completed = true;
      ActivityThisCycle = true;
      const DecodedInst &D = *S.DI;
      if (D.Def != DecodedInst::NoReg && T.RegProd[D.Def] == &S) {
        T.RegProd[D.Def] = nullptr;
        T.RegReady[D.Def] = S.CompleteCycle;
      }
      // Wake the RS entries waiting on this result (same-thread entries
      // that bound it at dispatch); one that loses its last in-flight
      // producer becomes issuable at its final operand-ready cycle.
      InstSlot *C = S.FirstWaiter;
      unsigned I = S.FirstWaiterIdx;
      while (C) {
        C->OperandReadyCycle =
            std::max(C->OperandReadyCycle, S.CompleteCycle);
        if (--C->NumProd == 0) {
          // Join the no-producer list at C's age position.
          std::vector<InstSlot *> &L = T.RsNoProd;
          const uint64_t Age = T.Window.robAge(*C);
          size_t J = L.size();
          L.push_back(C);
          for (; J > 0 && T.Window.robAge(*L[J - 1]) > Age; --J)
            L[J] = L[J - 1];
          L[J] = C;
          T.RsReadyAt = std::min(T.RsReadyAt, C->OperandReadyCycle);
        }
        InstSlot *Next = C->NextWaiter[I];
        I = C->NextWaiterIdx[I];
        C = Next;
      }
    }
  }
}

void Simulator::oooRetire() {
  for (uint32_t Live = LiveMask; Live; Live &= Live - 1) {
    const unsigned Tid = static_cast<unsigned>(std::countr_zero(Live));
    Thread &T = Threads[Tid];
    unsigned Retired = 0;
    while (!T.Window.robEmpty() && Retired < 6) {
      InstSlot &S = T.Window.robHead();
      if (!S.Completed || S.CompleteCycle > Now)
        break;
      if (S.Resume == ResumeEvent::AtRetire)
        fireResume(Tid, S);
      bool WasKill = S.Out.Kind == CtrlKind::Kill;
      bool WasHalt = S.Out.Kind == CtrlKind::Halt;
      // Clear any rename-map entry still pointing at this slot before the
      // storage is reclaimed.
      const DecodedInst &D = *S.DI;
      if (D.Def != DecodedInst::NoReg && T.RegProd[D.Def] == &S)
        T.RegProd[D.Def] = nullptr;
      T.Window.retire();
      ++Retired;
      ActivityThisCycle = true;
      if (WasKill) {
        LiveMask &= ~(1u << Tid);
        break;
      }
      if (WasHalt && !T.Speculative)
        MainDone = true;
    }
  }
}

void Simulator::oooIssue() {
  // Gather ready reservation-station entries, oldest first, into the
  // reused candidate buffer; a thread whose earliest issuable entry is not
  // yet due is skipped without looking at its RS, and only entries with no
  // producer in flight are looked at.
  ReadyBuf.clear();
  for (uint32_t Live = LiveMask; Live; Live &= Live - 1) {
    const unsigned Tid = static_cast<unsigned>(std::countr_zero(Live));
    Thread &T = Threads[Tid];
    if (T.RsReadyAt > Now)
      continue;
    for (unsigned I = 0; I < T.RsNoProd.size(); ++I) {
      InstSlot *S = T.RsNoProd[I];
      if (S->OperandReadyCycle <= Now)
        ReadyBuf.push_back({S, Tid, I});
    }
  }
  if (ReadyBuf.empty())
    return;
  // Oldest fetch first, then lowest thread; the stable sort keeps ROB age
  // order between entries of one thread fetched in the same cycle.
  sortSmall(ReadyBuf.data(), ReadyBuf.size(), [](const Cand &A, const Cand &B) {
    if (A.S->FetchCycle != B.S->FetchCycle)
      return A.S->FetchCycle < B.S->FetchCycle;
    return A.Tid < B.Tid;
  });

  unsigned FUUsed[5] = {0, 0, 0, 0, 0};
  unsigned IssuedCount = 0;
  uint32_t IssuedFrom = 0;
  const unsigned IssueWidth = Cfg.IssueBundlesPerCycle * BundleSlots;
  for (Cand &C : ReadyBuf) {
    if (IssuedCount >= IssueWidth)
      break;
    FuncUnit FU = C.S->DI->FU;
    unsigned &Used = FUUsed[static_cast<unsigned>(FU)];
    if (Used >= unitsOf(FU))
      continue;
    ++Used;
    applyIssueTiming(C.Tid, *C.S);
    Threads[C.Tid].RsNoProd[C.Idx] = nullptr; // Dropped below.
    IssuedFrom |= 1u << C.Tid;
    ++IssuedCount;
  }

  // Drop the issued entries from the RS and recompute the earliest
  // issuable cycle of the threads that issued.
  for (; IssuedFrom; IssuedFrom &= IssuedFrom - 1) {
    const unsigned Tid = static_cast<unsigned>(std::countr_zero(IssuedFrom));
    Thread &T = Threads[Tid];
    T.RsCount -= IssuedThisCycle[Tid];
    std::erase(T.RsNoProd, nullptr);
    T.RsReadyAt = UINT64_MAX;
    for (const InstSlot *S : T.RsNoProd)
      T.RsReadyAt = std::min(T.RsReadyAt, S->OperandReadyCycle);
  }
}

void Simulator::oooDispatch() {
  unsigned Order[8];
  unsigned N = 0;
  for (uint32_t Live = LiveMask; Live; Live &= Live - 1) {
    const unsigned Tid = static_cast<unsigned>(std::countr_zero(Live));
    if (!Threads[Tid].Window.frontEmpty())
      Order[N++] = Tid;
  }
  sortSmall(Order, N, [this](unsigned A, unsigned B) {
    if (Threads[A].LastIssueCycle != Threads[B].LastIssueCycle)
      return Threads[A].LastIssueCycle < Threads[B].LastIssueCycle;
    return A < B;
  });

  unsigned BundlesLeft = Cfg.IssueBundlesPerCycle;
  unsigned ThreadsUsed = 0;
  for (unsigned I = 0; I < N && BundlesLeft > 0 && ThreadsUsed < 2; ++I) {
    unsigned Cap = ThreadsUsed == 0 ? BundlesLeft : 1;
    unsigned Got = oooDispatchThread(Order[I], Cap);
    if (Got > 0) {
      ++ThreadsUsed;
      BundlesLeft -= Got;
      Threads[Order[I]].LastIssueCycle = Now;
      ActivityThisCycle = true;
    }
  }
}

unsigned Simulator::oooDispatchThread(unsigned Tid, unsigned MaxBundles) {
  Thread &T = Threads[Tid];
  unsigned Bundles = 0;
  uint64_t CurBundle = UINT64_MAX;

  while (!T.Window.frontEmpty()) {
    InstSlot &Head = T.Window.frontHead();
    if (Head.EligibleCycle > Now)
      break;
    if (T.Window.robSize() >= Cfg.RobEntries || T.RsCount >= Cfg.RsEntries)
      break;
    if (Head.LI->BundleId != CurBundle && Bundles == MaxBundles)
      break;
    if (Head.LI->BundleId != CurBundle) {
      CurBundle = Head.LI->BundleId;
      ++Bundles;
    }

    InstSlot &S = T.Window.dispatchFront();
    ++T.RsCount;

    // Capture operand producers (register renaming happens here: each use
    // binds to the latest prior writer of that register, and joins its
    // wakeup list).
    const DecodedInst &D = *S.DI;
    S.NumProd = 0;
    S.OperandReadyCycle = 0;
    for (unsigned U = 0; U < D.NumUses; ++U) {
      unsigned Dense = D.Uses[U];
      if (InstSlot *P = T.RegProd[Dense]) {
        if (S.NumProd < 2) {
          S.NextWaiter[S.NumProd] = P->FirstWaiter;
          S.NextWaiterIdx[S.NumProd] = P->FirstWaiterIdx;
          P->FirstWaiter = &S;
          P->FirstWaiterIdx = S.NumProd++;
        }
      } else {
        S.OperandReadyCycle =
            std::max(S.OperandReadyCycle, T.RegReady[Dense]);
      }
    }
    if (S.NumProd == 0) {
      T.RsNoProd.push_back(&S); // The youngest entry: age order holds.
      T.RsReadyAt = std::min(T.RsReadyAt, S.OperandReadyCycle);
    }
    if (D.Def != DecodedInst::NoReg)
      T.RegProd[D.Def] = &S;
  }
  return Bundles;
}

//===----------------------------------------------------------------------===//
// Cycle accounting (Figure 10)
//===----------------------------------------------------------------------===//

void Simulator::pruneMainOutstanding() {
  size_t Keep = 0;
  MainOutstandingExpiry = UINT64_MAX;
  for (size_t I = 0; I < MainOutstanding.size(); ++I)
    if (MainOutstanding[I].first > Now) {
      MainOutstandingExpiry =
          std::min(MainOutstandingExpiry, MainOutstanding[I].first);
      MainOutstanding[Keep++] = MainOutstanding[I];
    }
  MainOutstanding.resize(Keep);
}

bool Simulator::mainMissOutstanding() const {
  return !MainOutstanding.empty();
}

CycleCat Simulator::classifyCycle() const {
  const Thread &M = Threads[0];
  CycleCat Cat;

  auto CatOfLevel = [](cache::Level L) {
    switch (L) {
    case cache::Level::L2:
      return CycleCat::L1; // Missed L1, served by L2.
    case cache::Level::L3:
      return CycleCat::L2; // Missed L2, served by L3.
    case cache::Level::Mem:
      return CycleCat::L3; // Missed L3, served by memory.
    case cache::Level::L1:
      break;
    }
    return CycleCat::Other;
  };

  if (IssuedThisCycle[0] > 0) {
    Cat = mainMissOutstanding() ? CycleCat::CacheExec : CycleCat::Exec;
  } else if (Cfg.Pipeline == PipelineKind::InOrder) {
    Cat = CycleCat::Other;
    if (!M.Window.frontEmpty() && M.Window.frontHead().EligibleCycle <= Now) {
      // Head is present but stalled: attribute to the first unready operand
      // if it was produced by a load miss.
      const InstSlot &S = M.Window.frontHead();
      const DecodedInst &D = *S.DI;
      CycleCat Found = CycleCat::Other;
      for (unsigned U = 0; U < D.NumUses; ++U) {
        unsigned Dense = D.Uses[U];
        if (M.RegReady[Dense] > Now) {
          uint8_t Lvl = M.RegSrcLevel[Dense];
          if (Lvl != 0)
            Found = CatOfLevel(static_cast<cache::Level>(Lvl - 1));
          break;
        }
      }
      Cat = Found;
    }
  } else {
    // OOO: attribute no-issue cycles to the deepest outstanding main-thread
    // demand miss, if any.
    Cat = CycleCat::Other;
    cache::Level Deepest = cache::Level::L1;
    bool Any = false;
    for (const auto &Miss : MainOutstanding) {
      Any = true;
      if (static_cast<unsigned>(Miss.second) >
          static_cast<unsigned>(Deepest))
        Deepest = Miss.second;
    }
    if (Any)
      Cat = CatOfLevel(Deepest);
  }

  return Cat;
}

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

uint64_t Simulator::nextEventCycle() const {
  uint64_t Next = UINT64_MAX;
  auto Consider = [&](uint64_t C) {
    if (C > Now && C < Next)
      Next = C;
  };

  const bool InOrder = Cfg.Pipeline == PipelineKind::InOrder;
  for (uint32_t Live = LiveMask; Live; Live &= Live - 1) {
    const Thread &T = Threads[std::countr_zero(Live)];
    // A fetch-capable thread fetches as soon as its resume cycle arrives
    // (a fetch candidate always fetches at least one bundle).
    if (!FetchDisabled && !T.FetchStopped && !T.FetchWaitingOnEvent &&
        T.Window.frontSize() < QueueCap)
      Consider(std::max(T.FetchResumeCycle, Now + 1));
    if (!T.Window.frontEmpty()) {
      const InstSlot &S = T.Window.frontHead();
      if (S.EligibleCycle > Now) {
        Consider(S.EligibleCycle);
      } else if (InOrder) {
        // Eligible head stalled on operands: each unready operand's ready
        // cycle is an event — issue enabling aside, the Figure 10
        // first-unready-operand attribution can change at each of them.
        const DecodedInst &D = *S.DI;
        bool AnyUnready = false;
        for (unsigned U = 0; U < D.NumUses; ++U)
          if (T.RegReady[D.Uses[U]] > Now) {
            Consider(T.RegReady[D.Uses[U]]);
            AnyUnready = true;
          }
        if (!AnyUnready)
          Consider(Now + 1); // Ready head: issues next tick (defensive).
      } else if (T.Window.robSize() < Cfg.RobEntries &&
                 T.RsCount < Cfg.RsEntries) {
        Consider(Now + 1); // Eligible head with ROB/RS space: dispatches.
      }
    }
    if (!InOrder) {
      Consider(std::max(T.Calendar.earliest(), Now + 1));
      if (!T.Window.robEmpty() && T.Window.robHead().Completed)
        Consider(Now + 1); // Retirement backlog (the 6-per-cycle cap).
      if (T.RsReadyAt != UINT64_MAX)
        Consider(std::max(T.RsReadyAt, Now + 1));
    }
  }

  // An outstanding main-thread miss expiring changes the Figure 10
  // classification (CacheExec / deepest-level attribution).
  for (const auto &Miss : MainOutstanding)
    Consider(Miss.first);

  // Active descriptor streams step (or complete pending gathers) at their
  // own ready cycles; a skipped span must not jump over them.
  for (const ActiveStream &AS : ActiveStreams) {
    if (AS.StepsDone < AS.Depth)
      Consider(std::max(AS.ReadyCycle, Now + 1));
    for (const auto &P : AS.Pending)
      Consider(std::max(P.first, Now + 1));
  }

  // With throttling on, evaluation boundaries are events: evaluateThrottle
  // mutates trigger records there, so a skipped span never crosses one.
  if (Cfg.EnableSSPThrottle)
    Consider(Now + ThrottlePeriod - (Now & (ThrottlePeriod - 1)));

  // Nothing pending: tick serially so the livelock guard fires exactly as
  // it would without skipping.
  return Next == UINT64_MAX ? Now + 1 : Next;
}

void Simulator::stepCycle() {
  ++Now;
  if (Now > Cfg.MaxCycles)
    fatalError("simulation exceeded MaxCycles (livelock?)");
  if (MainOutstandingExpiry <= Now)
    pruneMainOutstanding();
  if (Cfg.EnableSSPThrottle && (Now & (ThrottlePeriod - 1)) == 0)
    evaluateThrottle();
  std::memset(IssuedThisCycle, 0, sizeof(IssuedThisCycle));
  ActivityThisCycle = false;

  if (Cfg.Pipeline == PipelineKind::InOrder) {
    issueCycleInOrder();
    fetchCycle();
  } else {
    oooWriteback();
    oooRetire();
    if (MainDone)
      return;
    oooIssue();
    oooDispatch();
    fetchCycle();
  }
  if (!ActiveStreams.empty())
    stepStreams();
  CycleCat Cat = classifyCycle();
  ++Stats.CatCycles[static_cast<unsigned>(Cat)];

  // Event-driven idle skipping: nothing fetched, issued, dispatched,
  // completed or retired this cycle, so every cycle before the next
  // event repeats this one's (in)activity and classification exactly —
  // account the whole span at once and jump.
  if (Cfg.SkipIdleCycles && !ActivityThisCycle) {
    uint64_t Next = nextEventCycle();
    // Keep the livelock guard firing at the same cycle as serial mode.
    if (Next > Cfg.MaxCycles + 1)
      Next = Cfg.MaxCycles + 1;
    if (Next > Now + 1) {
      uint64_t Span = Next - 1 - Now;
      Stats.CatCycles[static_cast<unsigned>(Cat)] += Span;
      Stats.SkippedCycles += Span;
      ++Stats.SkipEvents;
      // One span event for the whole jumped range — the skip path never
      // emits per-cycle events.
      if (Trace)
        Trace->record(0, obs::EventKind::IdleSpan, Now + 1, Span,
                      static_cast<uint64_t>(Cat), 0);
      Now = Next - 1;
    }
  }
}

void Simulator::runDetailedLoop(uint64_t StopMainInsts) {
  while (!MainDone && Stats.MainInsts < StopMainInsts)
    stepCycle();
}

bool Simulator::pipelineEmpty() const {
  for (const Thread &T : Threads)
    if (!T.Window.empty())
      return false;
  return true;
}

void Simulator::drainPipeline() {
  FetchDisabled = true;
  while (!MainDone && !pipelineEmpty())
    stepCycle();
  FetchDisabled = false;
}

void Simulator::finalizeExact() {
  // Lines still tracked when the main thread halts were never consumed.
  drainPendingFates();
  Stats.Attribution.clear();
  Stats.Attribution.reserve(Triggers.size());
  for (const auto &[Sid, R] : Triggers) {
    Stats.Attribution.push_back(R.Rollup);
    Stats.Attribution.back().Trigger = Sid;
  }

  Stats.Cycles = Now;
  Stats.Branches = Bpred.numBranches();
  Stats.BranchMispredicts = Bpred.numMispredicts();
  Stats.CacheTotals = Cache.totals();
  Stats.LoadProfile = Cache.profile();
}

SimStats Simulator::run() {
  if (Cfg.Sample.enabled())
    return runSampled();
  runDetailedLoop(UINT64_MAX);
  finalizeExact();
  return Stats;
}

//===----------------------------------------------------------------------===//
// Two-level sampled simulation
//===----------------------------------------------------------------------===//

namespace {

/// Accumulates (After - Before) into \p Acc, field by field.
void addTotalsDelta(cache::CacheHierarchy::Totals &Acc,
                    const cache::CacheHierarchy::Totals &Before,
                    const cache::CacheHierarchy::Totals &After) {
  Acc.Accesses += After.Accesses - Before.Accesses;
  for (unsigned L = 0; L < 4; ++L) {
    Acc.Hits[L] += After.Hits[L] - Before.Hits[L];
    Acc.Partials[L] += After.Partials[L] - Before.Partials[L];
  }
  Acc.FillBufferStallCycles +=
      After.FillBufferStallCycles - Before.FillBufferStallCycles;
  Acc.TLBMisses += After.TLBMisses - Before.TLBMisses;
}

} // namespace

SimStats Simulator::runSampled() {
  const SamplingPlan Plan = Cfg.Sample;
  assert(Plan.DetailInsts > 0 && "enabled plan requires a detail interval");
  // The obs contract under sampling: attribution stays exact *within*
  // measured detailed intervals (and is extrapolated like every other
  // counter), but event tracing is disabled — an extrapolated run cannot
  // emit a faithful per-event stream. Pinned in tests/sample_test.cpp.
  Trace = nullptr;

  // Everything extrapolated is accumulated as *measured-window deltas*:
  // the detailed ramp (unmeasured detail that re-populates the pipeline
  // and the speculative-thread contexts after a functional gap) runs
  // through the same counters, so wholesale scaling of Stats would charge
  // the windows for work done outside them.
  struct SspCounters {
    uint64_t SpecInsts, TriggersFired, TriggersIgnored, SpawnsSucceeded,
        SpawnsDropped, SpecWildLoads, SpecPrefetches, ThrottleEvents,
        StreamActivations, StreamSteps;
  };
  auto snapCounters = [this]() -> SspCounters {
    return {Stats.SpecInsts,     Stats.TriggersFired, Stats.TriggersIgnored,
            Stats.SpawnsSucceeded, Stats.SpawnsDropped, Stats.SpecWildLoads,
            Stats.SpecPrefetches, Stats.ThrottleEvents,
            Stats.StreamActivations, Stats.StreamSteps};
  };

  uint64_t DetailCycles = 0;
  uint64_t DetailMainInsts = 0;
  uint64_t FunctionalInsts = 0;
  uint64_t RampInsts = 0;
  uint64_t DetailBranches = 0;
  uint64_t DetailMispredicts = 0;
  uint64_t DetailCat[NumCycleCats] = {};
  SspCounters Meas = {};
  cache::CacheHierarchy::Totals DetailTotals;
  ir::DenseSidMap<PrefetchAttribution> MeasAttrib;
  ir::DenseSidMap<TriggerRecord> TriggersBefore;

  bool First = true;
  while (!MainDone) {
    // Detailed ramp before every measured window except the first: the
    // run itself starts detailed (cold-start exact), so the first window
    // needs no lead-in.
    if (!First && Plan.RampInsts > 0) {
      const uint64_t RampStart = Stats.MainInsts;
      runDetailedLoop(Stats.MainInsts + Plan.RampInsts);
      RampInsts += Stats.MainInsts - RampStart;
      if (MainDone)
        break;
    }
    First = false;

    const uint64_t StartCycle = Now;
    const uint64_t StartMain = Stats.MainInsts;
    const uint64_t StartBranches = Bpred.numBranches();
    const uint64_t StartMispredicts = Bpred.numMispredicts();
    const cache::CacheHierarchy::Totals StartTotals = Cache.totals();
    const SspCounters C0 = snapCounters();
    uint64_t StartCat[NumCycleCats];
    std::memcpy(StartCat, Stats.CatCycles, sizeof(StartCat));
    TriggersBefore = Triggers;

    runDetailedLoop(Stats.MainInsts + Plan.DetailInsts);
    drainPipeline();
    // Interval close, inside the measurement: speculative work does not
    // survive a functional gap (the functional levels execute the main
    // thread only). Contexts are freed — the ramp before the next window
    // re-populates them — and every still-pending prefetched line
    // resolves its fate now, so fates are measured per detail interval.
    LiveMask = 1; // Only the main context stays live.
    for (unsigned Tid = 1; Tid < Threads.size(); ++Tid)
      Threads[Tid].resetForSpawn(); // Drops its ROB and every pointer into it.
    ActiveStreams.clear();
    drainPendingFates();
    PrefetchedLines.clear();
    if (Cfg.EnableSSPThrottle)
      for (auto &[Sid, R] : Triggers)
        R.InFlight = 0;

    ++Stats.SampleIntervals;
    DetailCycles += Now - StartCycle;
    DetailMainInsts += Stats.MainInsts - StartMain;
    DetailBranches += Bpred.numBranches() - StartBranches;
    DetailMispredicts += Bpred.numMispredicts() - StartMispredicts;
    addTotalsDelta(DetailTotals, StartTotals, Cache.totals());
    for (unsigned C = 0; C < NumCycleCats; ++C)
      DetailCat[C] += Stats.CatCycles[C] - StartCat[C];
    const SspCounters C1 = snapCounters();
    Meas.SpecInsts += C1.SpecInsts - C0.SpecInsts;
    Meas.TriggersFired += C1.TriggersFired - C0.TriggersFired;
    Meas.TriggersIgnored += C1.TriggersIgnored - C0.TriggersIgnored;
    Meas.SpawnsSucceeded += C1.SpawnsSucceeded - C0.SpawnsSucceeded;
    Meas.SpawnsDropped += C1.SpawnsDropped - C0.SpawnsDropped;
    Meas.SpecWildLoads += C1.SpecWildLoads - C0.SpecWildLoads;
    Meas.SpecPrefetches += C1.SpecPrefetches - C0.SpecPrefetches;
    Meas.ThrottleEvents += C1.ThrottleEvents - C0.ThrottleEvents;
    Meas.StreamActivations += C1.StreamActivations - C0.StreamActivations;
    Meas.StreamSteps += C1.StreamSteps - C0.StreamSteps;
    for (const auto &[Sid, R] : Triggers) {
      const PrefetchAttribution &A = R.Rollup;
      PrefetchAttribution &M = MeasAttrib[Sid];
      M.Slice = A.Slice;
      if (A.MaxChainDepth > M.MaxChainDepth)
        M.MaxChainDepth = A.MaxChainDepth;
      auto It = TriggersBefore.find(Sid);
      const PrefetchAttribution *B =
          It != TriggersBefore.end() ? &It->second.Rollup : nullptr;
      M.Spawns += A.Spawns - (B ? B->Spawns : 0);
      for (unsigned F = 0; F < NumPrefetchFates; ++F)
        M.Fates[F] += A.Fates[F] - (B ? B->Fates[F] : 0);
      M.LateCycles += A.LateCycles - (B ? B->LateCycles : 0);
    }
    if (MainDone)
      break;

    // Functional fast-forward: architectural state only.
    if (Plan.FastForwardInsts > 0) {
      FunctionalResult R =
          fastForward(Threads[0].Ctx, LP, Mem, Plan.FastForwardInsts);
      FunctionalInsts += R.Insts;
      Now += R.Insts; // One nominal cycle per instruction.
      if (R.Halted) {
        MainDone = true;
        break;
      }
    }
    // Functional warming immediately before the ramp and the next
    // measured window: caches, TLB and predictor reach steady state again
    // so the measurement does not pay (or enjoy) a cold
    // microarchitecture.
    if (Plan.WarmupInsts > 0) {
      FunctionalResult R = warmForward(Threads[0].Ctx, LP, Mem, Cache, Bpred,
                                       Now, Plan.WarmupInsts);
      FunctionalInsts += R.Insts;
      if (R.Halted) {
        MainDone = true;
        break;
      }
    }
  }

  // Fates still pending when the run ended outside a measured window
  // (e.g. during the ramp) resolve into the exact rollups but not into the
  // extrapolated stats — like any other unmeasured work.
  drainPendingFates();

  // Extrapolation: every rate-like counter scales by the ratio of total
  // main-thread instructions to *measured* detailed main-thread
  // instructions. MainInsts itself is exact (detail-issued plus
  // functional).
  const uint64_t DetailMain = DetailMainInsts;
  const uint64_t TotalMain = Stats.MainInsts + FunctionalInsts;
  const double Ratio = DetailMain == 0 ? 1.0
                                       : static_cast<double>(TotalMain) /
                                             static_cast<double>(DetailMain);
  auto Scale = [Ratio](uint64_t V) {
    return static_cast<uint64_t>(
        std::llround(static_cast<double>(V) * Ratio));
  };

  Stats.Sampled = true;
  Stats.SampleDetailInsts = DetailMain;
  Stats.SampleFunctionalInsts = FunctionalInsts;
  Stats.SampleRampInsts = RampInsts;
  Stats.MainInsts = TotalMain;

  Stats.Cycles = Scale(DetailCycles);
  for (unsigned C = 0; C < NumCycleCats; ++C)
    Stats.CatCycles[C] = Scale(DetailCat[C]);
  Stats.SpecInsts = Scale(Meas.SpecInsts);
  Stats.TriggersFired = Scale(Meas.TriggersFired);
  Stats.TriggersIgnored = Scale(Meas.TriggersIgnored);
  Stats.SpawnsSucceeded = Scale(Meas.SpawnsSucceeded);
  Stats.SpawnsDropped = Scale(Meas.SpawnsDropped);
  Stats.SpecWildLoads = Scale(Meas.SpecWildLoads);
  Stats.SpecPrefetches = Scale(Meas.SpecPrefetches);
  Stats.ThrottleEvents = Scale(Meas.ThrottleEvents);
  Stats.StreamActivations = Scale(Meas.StreamActivations);
  Stats.StreamSteps = Scale(Meas.StreamSteps);
  Stats.Branches = Scale(DetailBranches);
  Stats.BranchMispredicts = Scale(DetailMispredicts);

  cache::CacheHierarchy::Totals ScaledTotals = DetailTotals;
  ScaledTotals.Accesses = Scale(ScaledTotals.Accesses);
  for (unsigned L = 0; L < 4; ++L) {
    ScaledTotals.Hits[L] = Scale(ScaledTotals.Hits[L]);
    ScaledTotals.Partials[L] = Scale(ScaledTotals.Partials[L]);
  }
  ScaledTotals.FillBufferStallCycles = Scale(ScaledTotals.FillBufferStallCycles);
  ScaledTotals.TLBMisses = Scale(ScaledTotals.TLBMisses);
  Stats.CacheTotals = ScaledTotals;

  // Attribution: per-trigger measured fates scale like the global
  // counters; UsefulPrefetches is re-derived from the scaled fates so the
  //   UsefulPrefetches == sum of useful()
  // invariant (tests/sim_test.cpp) survives rounding. MaxChainDepth is a
  // high-water mark, not a rate, and stays unscaled.
  Stats.Attribution.clear();
  Stats.Attribution.reserve(MeasAttrib.size());
  uint64_t UsefulScaled = 0;
  for (const auto &[Sid, A] : MeasAttrib) {
    PrefetchAttribution Scaled = A;
    Scaled.Trigger = Sid;
    Scaled.Spawns = Scale(Scaled.Spawns);
    for (unsigned F = 0; F < NumPrefetchFates; ++F)
      Scaled.Fates[F] = Scale(Scaled.Fates[F]);
    Scaled.LateCycles = Scale(Scaled.LateCycles);
    UsefulScaled += Scaled.useful();
    Stats.Attribution.push_back(Scaled);
  }
  Stats.UsefulPrefetches = UsefulScaled;

  // The load profile covers the detailed stretches (measured and ramp)
  // exactly and is not extrapolated: its consumers (delinquent-load
  // selection) rank loads by relative miss volume, which systematic
  // sampling preserves.
  Stats.LoadProfile = Cache.profile();
  return Stats;
}
