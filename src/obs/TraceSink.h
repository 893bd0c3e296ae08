//===- obs/TraceSink.h - Lock-free per-context event trace rings ----------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-trace half of the observability layer: a set of single-writer
/// ring buffers (one per hardware context) recording prefetch-lifecycle
/// events with cycle timestamps. The simulator writes to at most one ring
/// per event from its single driving thread, so the rings need no locks;
/// the layout (one writer per ring, monotonic head, drop-oldest overwrite
/// with a dropped counter) also stays correct if rings are ever written
/// from one OS thread each.
///
/// Tracing is off by default: the simulator holds a null TraceSink pointer
/// unless a sink is attached, and every emission site is guarded by that
/// pointer, so a run without a sink executes no observability code beyond
/// the null checks.
///
/// The recorded stream can be exported as Chrome trace_event JSON
/// (`ssp-sim --trace out.json`), viewable in Perfetto / chrome://tracing;
/// cycle timestamps are emitted in the "ts" microsecond field one-to-one
/// (1 cycle == 1 us on the viewer's axis). Instant events use ph:"i";
/// the event-driven simulator's idle-cycle skips are emitted as ph:"X"
/// spans covering the whole skipped range, never as per-cycle events.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_OBS_TRACESINK_H
#define SSP_OBS_TRACESINK_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ssp::obs {

/// Event vocabulary of the prefetch lifecycle (the schema is documented in
/// DESIGN.md "Observability architecture").
enum class EventKind : uint8_t {
  Trigger = 0,  ///< chk.c fired. A = trigger StaticId.
  Spawn = 1,    ///< Context spawned. A = trigger sid, B = slice sid,
                ///< Extra = spawn chain depth.
  Prefetch = 2, ///< Speculative access moved a line up. A = line number,
                ///< B = trigger sid, Extra = serving cache level.
  Retire = 3,   ///< Main thread consumed a tracked line. A = line number,
                ///< B = trigger sid, Extra = PrefetchFate.
  IdleSpan = 4, ///< Skipped idle cycles. A = CycleCat, Dur = span length.
  Throttle = 5, ///< The hardware throttle disabled a trigger for one
                ///< penalty period. A = trigger sid.
};

inline constexpr unsigned NumEventKinds = 6;

const char *eventKindName(EventKind K);

/// One recorded event. A/B/Extra are kind-specific payloads (see
/// EventKind); keeping them as raw integers keeps obs below every other
/// library in the dependency order.
struct TraceEvent {
  uint64_t Ts = 0;   ///< Cycle timestamp.
  uint64_t Dur = 0;  ///< Span length in cycles (IdleSpan only).
  uint64_t A = 0;
  uint64_t B = 0;
  uint32_t Tid = 0;  ///< Hardware context id.
  uint32_t Extra = 0;
  EventKind Kind = EventKind::Trigger;
};

/// Bounded multi-ring event sink. Each ring holds the most recent
/// `capacity()` events written to it; older events are overwritten and
/// counted as dropped rather than blocking or reallocating.
class TraceSink {
public:
  /// \p NumRings is one per hardware context (events with Tid beyond the
  /// last ring land in the last ring). \p LogCapacity is the per-ring
  /// power-of-two capacity; ring storage is allocated on first use.
  explicit TraceSink(unsigned NumRings = 8, unsigned LogCapacity = 16);

  size_t capacity() const { return Cap; }

  /// Records one event into \p Tid's ring. Hot path: one store and a head
  /// increment once the ring storage exists.
  void record(uint32_t Tid, EventKind Kind, uint64_t Ts, uint64_t Dur,
              uint64_t A, uint64_t B, uint32_t Extra = 0) {
    Ring &R = Rings[Tid < Rings.size() ? Tid : Rings.size() - 1];
    if (R.Buf.empty())
      R.Buf.resize(Cap);
    TraceEvent &E = R.Buf[R.Head & Mask];
    E.Ts = Ts;
    E.Dur = Dur;
    E.A = A;
    E.B = B;
    E.Tid = Tid;
    E.Extra = Extra;
    E.Kind = Kind;
    ++R.Head;
  }

  /// Total events ever recorded across all rings.
  uint64_t recorded() const;
  /// Events overwritten before export (recorded minus retained).
  uint64_t dropped() const;

  /// All retained events, merged across rings and sorted by (Ts, Tid,
  /// ring order) — deterministic for a deterministic simulation.
  std::vector<TraceEvent> drain() const;

  /// Chrome trace_event JSON ("traceEvents" array plus sink metadata).
  std::string renderChromeJSON() const;
  /// Writes renderChromeJSON() to \p Path; false on I/O failure.
  bool writeChromeJSON(const std::string &Path) const;

private:
  struct Ring {
    std::vector<TraceEvent> Buf; ///< Allocated lazily, size Cap.
    uint64_t Head = 0;           ///< Monotonic write index.
  };

  std::vector<Ring> Rings;
  size_t Cap;
  size_t Mask;
};

} // namespace ssp::obs

#endif // SSP_OBS_TRACESINK_H
