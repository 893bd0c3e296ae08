//===- core/AdaptService.cpp - The adaptation-as-a-service engine ---------===//

#include "core/AdaptService.h"

#include "core/AnalysisCache.h"
#include "core/Feedback.h"
#include "core/OptionKeys.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "obs/Percentile.h"
#include "obs/Registry.h"
#include "profile/ProfileIO.h"
#include "support/Args.h"
#include "verify/Diagnostic.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>

using namespace ssp;
using namespace ssp::core;

namespace {

std::string trimmed(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

/// The newlines in \p N bytes at \p P, eight bytes per step (SWAR): a
/// word's bytes equal to '\n' become zero after the xor, the zero test
/// sets bit 7 of exactly those bytes (no carry crosses a byte), and the
/// multiply sums the flags into the top byte. Protocol payloads hold
/// short lines, where this beats a memchr per line about 2.5x.
uint64_t countNewlines(const char *P, size_t N) {
  constexpr uint64_t Ones = 0x0101010101010101ULL, Low7 = Ones * 0x7F;
  uint64_t Count = 0;
  size_t I = 0;
  for (; N - I >= 8; I += 8) {
    uint64_t W = 0;
    std::memcpy(&W, P + I, sizeof(W));
    W ^= Ones * '\n';
    uint64_t Zero = ~(((W & Low7) + Low7) | W | Low7);
    Count += ((Zero >> 7) * Ones) >> 56;
  }
  for (; I < N; ++I)
    Count += P[I] == '\n';
  return Count;
}

/// A read-only stream buffer over bytes the caller owns, so a session
/// is parsed in place rather than copied into an istringstream. Nothing
/// writes the get area: putting back a character that differs from the
/// one read fails (pbackfail's default) instead of storing it.
class InPlaceBuf : public std::streambuf {
public:
  explicit InPlaceBuf(const std::string &S) {
    char *B = const_cast<char *>(S.data());
    setg(B, B, B + S.size());
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Request and warm-state records
//===----------------------------------------------------------------------===//

struct AdaptService::Request {
  std::string Id = "?";
  bool HaveProgram = false, HaveProfile = false;
  std::vector<std::pair<std::string, std::string>> RawOptions;
  /// First framing/semantic error; non-empty turns the whole request
  /// into an `error` response.
  std::string Error;

  /// The payloads move into Key.Program and Key.Profile as they are
  /// read; stage 1 adds the canonical options and hashes the key once.
  ServeKey Key;
  uint64_t KeyHash = 0;

  // Execution state.
  core::ToolOptions TO;
  /// The response payload: shared with the result cache on a hit, with
  /// the first miss for a batch duplicate.
  std::shared_ptr<const ServeResult> Result;
  bool IsHit = false;
  int DupOf = -1; ///< Index of an identical earlier miss in this batch.
  WarmEntry *Entry = nullptr;

  void fail(std::string Msg) {
    if (Error.empty())
      Error = std::move(Msg);
  }
  bool isMiss() const {
    return Error.empty() && !IsHit && DupOf < 0;
  }
};

struct AdaptService::WarmEntry {
  std::string ProgramText, ProfileText, AnalysisOpts;
  slicer::SliceOptions SliceOpts;
  sched::ScheduleOptions SchedOpts;
  analysis::SpecDepOptions SpecOpts;

  ir::Program Prog;
  ir::DataImage Data;
  profile::ProfileData PD;
  std::optional<AnalysisCache> AC;
  std::string Error; ///< Parse/validation failure; sticky for reuse.
  bool Built = false;

  /// Parses and validates the texts, then builds the analyses. Runs on a
  /// pool worker; touches only this entry.
  void build() {
    Built = true;
    std::string Err;
    if (!ir::parseProgram(ProgramText, Prog, Err, &Data)) {
      Error = "program: " + Err;
      return;
    }
    verify::DiagnosticEngine DE;
    ir::verifyStructural(Prog, DE);
    if (DE.hasErrors()) {
      Error = "program: " + DE.diagnostics().front().Message;
      return;
    }
    if (!profile::parseProfileText(ProfileText, PD, Err) ||
        !profile::checkProfileMatches(PD, Prog, Err)) {
      Error = "profile: " + Err;
      return;
    }
    AC.emplace(Prog, PD, SliceOpts, SchedOpts, SpecOpts);
  }
};

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

AdaptService::AdaptService(const ServeOptions &Opts)
    : Opts(Opts), Pool(Opts.Jobs), Cache(Opts.CacheBytes) {}

AdaptService::~AdaptService() = default;

AdaptService::WarmEntry *
AdaptService::findWarm(const std::string &ProgramText,
                       const std::string &ProfileText,
                       const std::string &AnalysisOpts) {
  for (auto It = Warm.begin(); It != Warm.end(); ++It) {
    WarmEntry &E = **It;
    if (E.ProgramText == ProgramText && E.ProfileText == ProfileText &&
        E.AnalysisOpts == AnalysisOpts) {
      Warm.splice(Warm.begin(), Warm, It); // Refresh LRU.
      if (Opts.Metrics)
        Opts.Metrics->addCounter("serve.warm_hits");
      return Warm.front().get();
    }
  }
  auto E = std::make_unique<WarmEntry>();
  E->ProgramText = ProgramText;
  E->ProfileText = ProfileText;
  E->AnalysisOpts = AnalysisOpts;
  Warm.push_front(std::move(E));
  if (Opts.Metrics)
    Opts.Metrics->addCounter("serve.warm_builds");
  return Warm.front().get();
}

void AdaptService::executeBatch(std::vector<Request> &Batch,
                                std::ostream &Out) {
  if (Batch.empty())
    return;
  obs::Registry *M = Opts.Metrics;
  if (M)
    M->addCounter("serve.batches");

  // Stage 1 (serial): options, cache keys, result-cache lookups, and
  // batch-local dedup. Serial lookups keep hit/miss accounting and LRU
  // order independent of --jobs.
  {
    obs::ScopedTimerMs T(M, "serve.lookup_ms");
    for (size_t I = 0; I < Batch.size(); ++I) {
      Request &R = Batch[I];
      if (!R.Error.empty())
        continue;
      if (!R.HaveProgram) {
        R.fail("request '" + R.Id + "': missing program section");
        continue;
      }
      if (!R.HaveProfile) {
        R.fail("request '" + R.Id + "': missing profile section");
        continue;
      }
      std::string Msg;
      for (const auto &[Key, Value] : R.RawOptions)
        if (!setOption(R.TO, Key, Value, Msg)) {
          R.fail(Msg);
          break;
        }
      if (!R.Error.empty())
        continue;
      R.TO.FatalOnVerifyError = false;
      R.TO.Metrics = M;
      R.TO.Pool = &Pool;
      R.Key.Options = renderOptions(R.TO);
      R.KeyHash = Cache.hashOf(R.Key);
      if ((R.Result = Cache.lookup(R.Key, R.KeyHash))) {
        R.IsHit = true;
        continue;
      }
      for (size_t J = 0; J < I; ++J)
        if (Batch[J].isMiss() && Batch[J].KeyHash == R.KeyHash &&
            Batch[J].Key == R.Key) {
          R.DupOf = static_cast<int>(J);
          break;
        }
    }
  }

  // Stage 2 (serial): attach each miss to its warm analysis state,
  // creating unbuilt entries for unseen (program, profile, analysis-
  // options) triples.
  std::vector<WarmEntry *> ToBuild;
  for (Request &R : Batch) {
    if (!R.isMiss())
      continue;
    R.Entry = findWarm(R.Key.Program, R.Key.Profile,
                       renderAnalysisOptions(R.TO));
    if (!R.Entry->Built) {
      R.Entry->SliceOpts = R.TO.Slicing;
      R.Entry->SchedOpts = PostPassTool::scheduleOptionsOf(R.TO);
      R.Entry->SpecOpts = PostPassTool::specDepOptionsOf(R.TO);
      if (std::find(ToBuild.begin(), ToBuild.end(), R.Entry) ==
          ToBuild.end())
        ToBuild.push_back(R.Entry);
    }
  }

  // Stage 3 (parallel): parse + analyze new programs, then run every
  // miss. Each worker touches only its own entry/request slot, and
  // adaptWith() fans out further on the same pool — the cooperative
  // parallelFor makes the nesting safe.
  {
    obs::ScopedTimerMs T(M, "serve.analysis_ms");
    Pool.parallelFor(ToBuild.size(),
                     [&](size_t I) { ToBuild[I]->build(); });
  }
  std::vector<size_t> Misses;
  for (size_t I = 0; I < Batch.size(); ++I)
    if (Batch[I].isMiss())
      Misses.push_back(I);
  std::vector<double> MissUs(Misses.size(), 0.0);
  {
    obs::ScopedTimerMs T(M, "serve.adapt_ms");
    Pool.parallelFor(Misses.size(), [&](size_t I) {
      Request &R = Batch[Misses[I]];
      WarmEntry &E = *R.Entry;
      if (!E.Error.empty()) {
        R.fail(E.Error);
        return;
      }
      auto Start = std::chrono::steady_clock::now();
      if (R.TO.FeedbackRounds > 0) {
        // Closed-loop serving: the daemon runs the adapt -> simulate ->
        // re-adapt loop itself (it has the data image and the warm
        // analyses), and the response carries the best round's binary
        // plus the per-round decision trace appended to the report.
        FeedbackResult FR =
            runFeedbackLoop(E.Prog, E.PD, R.TO, sim::imageOf(E.Data),
                            sim::SamplingPlan(), &*E.AC);
        R.Result = std::make_shared<const ServeResult>(ServeResult{
            renderReportText(E.PD.BaselineCycles, FR.BestReport) +
                renderFeedbackText(FR),
            FR.Best.str()});
      } else {
        PostPassTool Tool(E.Prog, E.PD, R.TO);
        AdaptationReport Rep;
        ir::Program Enhanced = Tool.adaptWith(&*E.AC, &Rep);
        R.Result = std::make_shared<const ServeResult>(ServeResult{
            renderReportText(E.PD.BaselineCycles, Rep), Enhanced.str()});
      }
      MissUs[I] = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    });
  }
  for (double Us : MissUs)
    if (Us > 0.0)
      LatencyUs.push_back(Us);

  // Stage 4 (serial, request order): resolve duplicates, publish results
  // into the cache, and write the responses. Insertion order — and with
  // it eviction order — is therefore deterministic for any job count.
  {
    obs::ScopedTimerMs T(M, "serve.respond_ms");
    for (Request &R : Batch) {
      if (R.DupOf >= 0 && R.Error.empty()) {
        const Request &Src = Batch[static_cast<size_t>(R.DupOf)];
        if (Src.Error.empty())
          R.Result = Src.Result;
        else
          R.fail(Src.Error);
      }
      if (R.Error.empty() && !R.IsHit && R.DupOf < 0)
        Cache.insert(std::move(R.Key), R.KeyHash, R.Result);
      ++Served;
      if (!R.Error.empty()) {
        Out << "response " << R.Id << " error\n"
            << "message " << R.Error.size() << "\n"
            << R.Error << "\n"
            << "end\n";
      } else {
        const ServeResult &Res = *R.Result;
        Out << "response " << R.Id << " ok\n"
            << "report " << Res.Report.size() << "\n"
            << Res.Report << "\n"
            << "binary " << Res.Binary.size() << "\n"
            << Res.Binary << "\n"
            << "end\n";
      }
      if (M) {
        M->addCounter("serve.requests");
        M->addCounter(R.Error.empty() ? "serve.responses_ok"
                                      : "serve.responses_error");
      }
    }
  }

  // Stage 5: retire warm state beyond the budget (never an entry this
  // batch just used — those were all refreshed to the front).
  while (Warm.size() > Opts.WarmPrograms)
    Warm.pop_back();

  if (M) {
    const ServeCache::Stats &St = Cache.stats();
    M->setCounter("serve.cache_hits", St.Hits);
    M->setCounter("serve.cache_misses", St.Misses);
    M->setCounter("serve.cache_evictions", St.Evictions);
    M->setCounter("serve.cache_collisions", St.Collisions);
    M->setCounter("serve.cache_entries", Cache.size());
    M->setCounter("serve.cache_bytes", Cache.usedBytes());
  }
}

uint64_t AdaptService::serve(std::istream &In, std::ostream &Out) {
  uint64_t ServedBefore = Served;
  std::vector<Request> Batch;
  uint64_t LineNo = 0;
  std::string Line;

  auto Located = [&](const std::string &Msg) {
    return "line " + std::to_string(LineNo) + ": " + Msg;
  };
  // After a framing error inside a request the payload boundary is
  // unknown; skip forward to the next lone `end` so the session can
  // continue. (Payload bytes that happen to contain an `end` line will
  // mis-resync — the price of broken framing; the daemon still answers
  // every subsequent well-formed request.)
  auto Resync = [&] {
    while (std::getline(In, Line)) {
      ++LineNo;
      if (trimmed(Line) == "end")
        return;
    }
  };
  // Reads an N-byte length-prefixed payload plus its terminating
  // newline; false + a located error on truncation. N comes from the
  // frame header, so the buffer grows by bounded chunks only as bytes
  // arrive, never to N up front.
  auto ReadPayload = [&](uint64_t N, std::string &PayloadOut,
                         std::string &Err) {
    constexpr uint64_t Chunk = 1 << 20;
    PayloadOut.clear();
    while (PayloadOut.size() < N && In) {
      size_t Have = PayloadOut.size();
      size_t Want = static_cast<size_t>(std::min(Chunk, N - Have));
      PayloadOut.resize(Have + Want);
      In.read(&PayloadOut[Have], static_cast<std::streamsize>(Want));
      PayloadOut.resize(Have + static_cast<size_t>(In.gcount()));
    }
    if (PayloadOut.size() != N) {
      Err = Located("truncated payload (got " +
                    std::to_string(PayloadOut.size()) + " of " +
                    std::to_string(N) + " bytes)");
      return false;
    }
    // One optional newline terminates the frame: explicit-framing clients
    // send `<N bytes>\n`, shell clients `cat` files whose own trailing
    // newline is already inside the byte count. Directive lines never
    // start with '\n', so consuming it only when present is unambiguous.
    LineNo += countNewlines(PayloadOut.data(), PayloadOut.size());
    if (In.peek() == '\n') {
      In.get();
      ++LineNo;
    }
    return true;
  };

  while (std::getline(In, Line)) {
    ++LineNo;
    std::string T = trimmed(Line);
    if (T.empty() || T[0] == '#')
      continue;
    if (T == "flush") {
      executeBatch(Batch, Out);
      Batch.clear();
      Out.flush();
      continue;
    }
    if (T.compare(0, 8, "request ") != 0 && T != "request") {
      Request Bad;
      Bad.fail(Located("expected 'request' or 'flush', got '" + T + "'"));
      Batch.push_back(std::move(Bad));
      continue;
    }

    Request R;
    {
      std::string Id = T == "request" ? "" : trimmed(T.substr(8));
      if (Id.empty() || Id.find(' ') != std::string::npos) {
        R.fail(Located("'request' needs a single id token"));
        Batch.push_back(std::move(R));
        Resync();
        continue;
      }
      R.Id = Id;
    }

    // Section loop, until `end`.
    bool Ended = false;
    while (!Ended) {
      if (!std::getline(In, Line)) {
        R.fail(Located("unexpected end of input inside request '" + R.Id +
                       "'"));
        break;
      }
      ++LineNo;
      T = trimmed(Line);
      if (T.empty() || T[0] == '#')
        continue;
      if (T == "end") {
        Ended = true;
        break;
      }
      bool IsProgram = T.compare(0, 8, "program ") == 0;
      bool IsProfile = T.compare(0, 8, "profile ") == 0;
      if (IsProgram || IsProfile) {
        uint64_t N = 0;
        if (!support::parseUnsigned(trimmed(T.substr(8)), N)) {
          R.fail(Located("bad payload length in '" + T + "'"));
          Resync();
          break;
        }
        std::string Payload, Err;
        if (!ReadPayload(N, Payload, Err)) {
          R.fail(Err);
          break; // Truncation means EOF: nothing left to resync over.
        }
        bool &Have = IsProgram ? R.HaveProgram : R.HaveProfile;
        if (Have) {
          R.fail(Located(std::string("duplicate '") +
                         (IsProgram ? "program" : "profile") +
                         "' section"));
          continue; // Framing is intact; keep consuming to `end`.
        }
        Have = true;
        (IsProgram ? R.Key.Program : R.Key.Profile) = std::move(Payload);
        continue;
      }
      if (T.compare(0, 7, "option ") == 0) {
        std::string Rest = trimmed(T.substr(7));
        size_t Eq = Rest.find('=');
        if (Eq == std::string::npos || Eq == 0) {
          R.fail(Located("malformed option (want KEY=VALUE): '" + Rest +
                         "'"));
          continue;
        }
        R.RawOptions.emplace_back(trimmed(Rest.substr(0, Eq)),
                                  trimmed(Rest.substr(Eq + 1)));
        continue;
      }
      R.fail(Located("expected 'program', 'profile', 'option', or 'end', "
                     "got '" +
                     T + "'"));
      Resync();
      break;
    }
    Batch.push_back(std::move(R));
  }
  executeBatch(Batch, Out); // EOF is the final flush.
  Out.flush();
  return Served - ServedBefore;
}

std::string AdaptService::processBatch(const std::string &Session) {
  InPlaceBuf Buf(Session);
  std::istream In(&Buf);
  std::ostringstream Out;
  serve(In, Out);
  return std::move(Out).str();
}

void AdaptService::flushLatencyMetrics() {
  if (!Opts.Metrics || LatencyUs.empty())
    return;
  obs::PercentileSet P;
  for (double Us : LatencyUs)
    P.record(Us);
  auto AsUs = [](double V) { return static_cast<uint64_t>(V + 0.5); };
  Opts.Metrics->setCounter("serve.latency_p50_us", AsUs(P.percentile(50)));
  Opts.Metrics->setCounter("serve.latency_p95_us", AsUs(P.percentile(95)));
  Opts.Metrics->setCounter("serve.latency_p99_us", AsUs(P.percentile(99)));
  Opts.Metrics->setCounter("serve.latency_mean_us", AsUs(P.mean()));
  Opts.Metrics->setCounter("serve.latency_samples", P.count());
}
