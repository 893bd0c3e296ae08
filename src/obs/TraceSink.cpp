//===- obs/TraceSink.cpp - Lock-free per-context event trace rings --------===//

#include "obs/TraceSink.h"

#include <algorithm>
#include <cstdio>

using namespace ssp;
using namespace ssp::obs;

const char *ssp::obs::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::Trigger:
    return "trigger";
  case EventKind::Spawn:
    return "spawn";
  case EventKind::Prefetch:
    return "prefetch";
  case EventKind::Retire:
    return "retire";
  case EventKind::IdleSpan:
    return "idle";
  case EventKind::Throttle:
    return "throttle";
  }
  return "?";
}

TraceSink::TraceSink(unsigned NumRings, unsigned LogCapacity)
    : Rings(NumRings == 0 ? 1 : NumRings),
      Cap(size_t(1) << LogCapacity), Mask(Cap - 1) {}

uint64_t TraceSink::recorded() const {
  uint64_t N = 0;
  for (const Ring &R : Rings)
    N += R.Head;
  return N;
}

uint64_t TraceSink::dropped() const {
  uint64_t N = 0;
  for (const Ring &R : Rings)
    if (R.Head > Cap)
      N += R.Head - Cap;
  return N;
}

std::vector<TraceEvent> TraceSink::drain() const {
  std::vector<TraceEvent> Out;
  Out.reserve(static_cast<size_t>(recorded() - dropped()));
  for (const Ring &R : Rings) {
    uint64_t Retained = std::min<uint64_t>(R.Head, Cap);
    for (uint64_t I = R.Head - Retained; I < R.Head; ++I)
      Out.push_back(R.Buf[I & Mask]);
  }
  // Rings are appended in ring order, each internally oldest-first;
  // stable_sort on (Ts, Tid) keeps that order among equals, so the merged
  // stream is deterministic.
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     if (A.Ts != B.Ts)
                       return A.Ts < B.Ts;
                     return A.Tid < B.Tid;
                   });
  return Out;
}

namespace {

void appendU64(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu", (unsigned long long)V);
  Out += Buf;
}

void appendHex(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "\"0x%llx\"", (unsigned long long)V);
  Out += Buf;
}

/// One trace_event object. Instants carry "s":"t" (thread scope); spans
/// carry "dur". Cycle timestamps map one-to-one onto the viewer's
/// microsecond axis.
void appendEvent(std::string &Out, const TraceEvent &E) {
  Out += "    {\"name\": \"";
  Out += eventKindName(E.Kind);
  Out += "\", \"ph\": \"";
  Out += E.Kind == EventKind::IdleSpan ? "X" : "i";
  Out += "\", \"pid\": 0, \"tid\": ";
  appendU64(Out, E.Tid);
  Out += ", \"ts\": ";
  appendU64(Out, E.Ts);
  if (E.Kind == EventKind::IdleSpan) {
    Out += ", \"dur\": ";
    appendU64(Out, E.Dur);
  } else {
    Out += ", \"s\": \"t\"";
  }
  Out += ", \"args\": {";
  switch (E.Kind) {
  case EventKind::Trigger:
  case EventKind::Throttle:
    Out += "\"trigger\": ";
    appendHex(Out, E.A);
    break;
  case EventKind::Spawn:
    Out += "\"trigger\": ";
    appendHex(Out, E.A);
    Out += ", \"slice\": ";
    appendHex(Out, E.B);
    Out += ", \"depth\": ";
    appendU64(Out, E.Extra);
    break;
  case EventKind::Prefetch:
    Out += "\"line\": ";
    appendHex(Out, E.A);
    Out += ", \"trigger\": ";
    appendHex(Out, E.B);
    Out += ", \"served_by\": ";
    appendU64(Out, E.Extra);
    break;
  case EventKind::Retire:
    Out += "\"line\": ";
    appendHex(Out, E.A);
    Out += ", \"trigger\": ";
    appendHex(Out, E.B);
    Out += ", \"fate\": ";
    appendU64(Out, E.Extra);
    break;
  case EventKind::IdleSpan:
    Out += "\"cat\": ";
    appendU64(Out, E.A);
    break;
  }
  Out += "}}";
}

} // namespace

std::string TraceSink::renderChromeJSON() const {
  std::vector<TraceEvent> Events = drain();
  std::string Out;
  Out.reserve(Events.size() * 96 + 256);
  Out += "{\n  \"displayTimeUnit\": \"ns\",\n  \"recorded\": ";
  appendU64(Out, recorded());
  Out += ",\n  \"dropped\": ";
  appendU64(Out, dropped());
  Out += ",\n  \"traceEvents\": [\n";
  for (size_t I = 0; I < Events.size(); ++I) {
    appendEvent(Out, Events[I]);
    if (I + 1 != Events.size())
      Out += ",";
    Out += "\n";
  }
  Out += "  ]\n}\n";
  return Out;
}

bool TraceSink::writeChromeJSON(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string S = renderChromeJSON();
  bool Ok = std::fwrite(S.data(), 1, S.size(), F) == S.size();
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}
