//===- perfbench/bench/Serve.cpp - The `serve` workload -------------------===//
//
// One closed-loop client sends seeded requests to core::AdaptService, one
// request per batch, so each op's latency is the round trip the client
// waits for. Every pass of 100 requests holds the same mix:
//
//   80 repeats of a program with default options  result-cache hits
//   13 repeats with a trip-budget/cutoff option    result-cache misses on
//                                                  a warm AnalysisCache
//    4 programs the service has not seen           the cold path: parse,
//                                                  analysis, adapt
//    3 malformed requests                          must be answered error
//
// The mix is an assumption: there is no recorded traffic to take it from.
// Hits are the bulk so that the median request is a hit well inside the
// hit band (op_p50_ms measures the hit path alone); 13 variants a pass
// make every pass insert and evict; 4 cold requests keep the cold path
// on the timed path; 3 malformed cover the four defects every 1-2
// passes. README.md gives the reasoning and the measured cost of each
// class. The result cache is sized to hold the hot set and about a third
// of the option variants, so misses insert and evict while hits only
// read. Every ok response must be byte-identical to the one-shot library
// path.
//
//===----------------------------------------------------------------------===//

#include "bench/Bench.h"

#include "core/AdaptService.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"
#include "profile/ProfileIO.h"

using namespace ssp;
using namespace perfbench;

namespace {

/// Option sets of the result-affecting variants; index 0 is the default.
const std::vector<std::vector<std::pair<std::string, std::string>>>
    Variants = {{},
                {{"trip-budget", "256"}},
                {{"trip-budget", "1024"}},
                {{"cutoff", "0.2"}},
                {{"cutoff", "0.45"}},
                {{"trip-budget", "2048"}, {"cutoff", "0.35"}}};

enum class Kind { Hit, Variant, Cold, Malformed };
constexpr size_t PassRequests = 100;
constexpr size_t PassVariants = 13, PassCold = 4, PassMalformed = 3;
constexpr size_t PassHits =
    PassRequests - PassVariants - PassCold - PassMalformed;
constexpr unsigned MalformedKinds = 4;

struct Item {
  std::string Name;
  std::string Prog, Prof;
  /// Expected response after the "response <id> ok\n" line, per variant.
  std::vector<std::string> Body;
};

struct Request {
  Kind K = Kind::Hit;
  size_t Item = 0;
  size_t Variant = 0;
  /// Cold: makes the program text new. Malformed: which defect (0 bad
  /// program, 1 no profile, 2 unknown option, 3 bad option value).
  uint64_t Tag = 0;
};

std::string section(const char *Name, const std::string &Payload) {
  return std::string(Name) + " " + std::to_string(Payload.size()) + "\n" +
         Payload + "\n";
}

Item makeItem(const workloads::Workload &W, SpanRecorder *Spans) {
  Item It;
  It.Name = W.Name;
  ir::Program P;
  {
    SpanScope S(Spans, "workloads.build");
    P = W.Build();
  }
  profile::ProfileData PD;
  {
    SpanScope S(Spans, "profile.run");
    PD = core::profileProgram(P, W.BuildMemory);
  }
  It.Prog = P.str();
  It.Prof = profile::writeProfileText(PD);
  for (const auto &Opts : Variants) {
    // The one-shot library path `ssp-adapt` takes.
    core::ToolOptions TO;
    TO.FatalOnVerifyError = false;
    for (const auto &[Key, Value] : Opts) {
      if (Key == "trip-budget")
        TO.MaxTripBudget = std::stoull(Value);
      else
        TO.ReducedMissCutoff = std::stod(Value);
    }
    core::AdaptationReport Rep;
    ir::Program Enhanced;
    {
      SpanScope S(Spans, "core.adapt");
      core::PostPassTool Tool(P, PD, TO);
      Enhanced = Tool.adapt(&Rep);
    }
    It.Body.push_back(section("report", core::renderReportText(
                                            PD.BaselineCycles, Rep)) +
                      section("binary", Enhanced.str()) + "end\n");
  }
  return It;
}

class Serve final : public Workload {
public:
  Serve(uint64_t Seed, ServeSetup Setup, SpanRecorder *Spans)
      : Seed(Seed), Jobs(Setup.Jobs), Tamper(std::move(Setup.Tamper)) {
    for (const workloads::Workload &W : Setup.Corpus)
      Items.push_back(makeItem(W, Spans));
    // The result cache holds the hot set and about a third of the
    // variants: LRU keeps the hot entries, variants get evicted before
    // they come round again.
    uint64_t Hot = 0, Rest = 0;
    for (const Item &It : Items)
      for (size_t V = 0; V < It.Body.size(); ++V)
        (V ? Rest : Hot) += It.Prog.size() + It.Prof.size() + 1024 +
                            It.Body[V].size();
    CacheBytes = Hot + Rest / 3;
    std::vector<Request> All;
    for (size_t I = 0; I < Items.size(); ++I)
      for (size_t V = 1; V < Variants.size(); ++V)
        All.push_back({Kind::Variant, I, V, 0});
    for (size_t I : passOrder(Seed, ~0ull, All.size()))
      VariantCycle.push_back(All[I]);
  }

  size_t passLength() const override { return PassRequests; }

  void restart(obs::Registry *M) override {
    core::ServeOptions SO;
    SO.Jobs = Jobs;
    SO.CacheBytes = CacheBytes;
    SO.WarmPrograms = static_cast<unsigned>(Items.size()) + 8;
    SO.Metrics = M;
    Service.reset();
    Service = std::make_unique<core::AdaptService>(SO);
    // Prime the hot set, so that repeats are hits from the first pass on.
    for (size_t I = 0; I < Items.size(); ++I)
      Service->processBatch(frame("prime" + std::to_string(I),
                                  {Kind::Hit, I, 0, 0}));
    Primed = Service->cache().stats();
    NextHit = NextVariant = NextCold = NextMalformed = 0;
    PassOf = ~0ull;
    FirstPassBytes = 0;
  }

  OpResult runOp(uint64_t Seq, SpanRecorder *Spans) override {
    uint64_t Pass = Seq / PassRequests;
    if (PassOf != Pass)
      planPass(Pass);
    const Request &Q = Plan[Seq % PassRequests];
    std::string Id = "q" + std::to_string(Seq);
    std::string Text = frame(Id, Q);
    OpResult R;
    std::string Got;
    auto Start = std::chrono::steady_clock::now();
    {
      SpanScope S(Spans, "core.serve");
      Got = Service->processBatch(Text);
    }
    R.Ms = msSince(Start);
    if (Tamper)
      Tamper(Got);
    R.Error = check(Id, Q, Got);
    if (Pass == 0) {
      FirstPassBytes += Got.size();
      if (Seq + 1 == PassRequests)
        FirstPass = Service->cache().stats();
    }
    return R;
  }

  CountMap counts() const override {
    return {{"core.output_bytes", std::to_string(FirstPassBytes)},
            {"serve.first_pass_hits", std::to_string(FirstPass.Hits)},
            {"serve.first_pass_misses", std::to_string(FirstPass.Misses)},
            {"serve.first_pass_evictions",
             std::to_string(FirstPass.Evictions)}};
  }

  void layerMetrics(MetricMap &M, size_t Ops,
                    const SpanRecorder &) const override {
    const core::ServeCache::Stats &St = Service->cache().stats();
    uint64_t Hits = St.Hits - Primed.Hits;
    uint64_t Lookups = Hits + St.Misses - Primed.Misses;
    M["serve.hit_share"].Value =
        Lookups ? static_cast<double>(Hits) / static_cast<double>(Lookups)
                : 0.0;
    if (Ops)
      M["serve.cache_evictions"].Value =
          static_cast<double>(St.Evictions - Primed.Evictions) * 1000.0 /
          static_cast<double>(Ops);
    M["core.output_bytes"].Value = static_cast<double>(FirstPassBytes);
  }

private:
  /// The requests of pass \p Pass: the fixed mix, each class cycling
  /// through its inputs, in a seeded order.
  void planPass(uint64_t Pass) {
    std::vector<Request> Mix;
    for (size_t I = 0; I < PassHits; ++I)
      Mix.push_back({Kind::Hit, NextHit++ % Items.size(), 0, 0});
    for (size_t I = 0; I < PassVariants; ++I)
      Mix.push_back(VariantCycle[NextVariant++ % VariantCycle.size()]);
    for (size_t I = 0; I < PassCold; ++I, ++NextCold)
      Mix.push_back({Kind::Cold, NextCold % Items.size(), 0, NextCold});
    for (size_t I = 0; I < PassMalformed; ++I, ++NextMalformed)
      Mix.push_back({Kind::Malformed, NextMalformed % Items.size(), 0,
                     NextMalformed % MalformedKinds});
    Plan.clear();
    for (size_t I : passOrder(Seed, Pass, Mix.size()))
      Plan.push_back(Mix[I]);
    PassOf = Pass;
  }

  std::string frame(const std::string &Id, const Request &Q) const {
    const Item &It = Items[Q.Item];
    std::string S = "request " + Id + "\n";
    std::string Prog = It.Prog;
    if (Q.K == Kind::Cold)
      Prog = "# cold request " + std::to_string(Q.Tag) + "\n" + Prog;
    if (Q.K == Kind::Malformed && Q.Tag == 0)
      Prog = "this is not a program\n";
    S += section("program", Prog);
    if (!(Q.K == Kind::Malformed && Q.Tag == 1))
      S += section("profile", It.Prof);
    for (const auto &[Key, Value] : Variants[Q.Variant])
      S += "option " + Key + "=" + Value + "\n";
    if (Q.K == Kind::Malformed && Q.Tag == 2)
      S += "option no-such-option=1\n";
    if (Q.K == Kind::Malformed && Q.Tag == 3)
      S += "option cutoff=7\n";
    return S + "end\n";
  }

  std::string check(const std::string &Id, const Request &Q,
                    const std::string &Got) const {
    const Item &It = Items[Q.Item];
    if (Q.K == Kind::Malformed) {
      std::string Head = "response " + Id + " error\nmessage ";
      if (Got.compare(0, Head.size(), Head) != 0 || Got.size() < 5 ||
          Got.compare(Got.size() - 5, 5, "\nend\n") != 0)
        return "malformed request " + Id + " was not answered error";
      return "";
    }
    std::string Head = "response " + Id + " ok\n";
    const std::string &Body = It.Body[Q.Variant];
    if (Got.size() != Head.size() + Body.size() ||
        Got.compare(0, Head.size(), Head) != 0 ||
        Got.compare(Head.size(), Body.size(), Body) != 0)
      return It.Name + ": response to " + Id +
             " differs from the one-shot library path";
    return "";
  }

  uint64_t Seed;
  unsigned Jobs;
  std::function<void(std::string &)> Tamper;
  std::vector<Item> Items;
  std::vector<Request> VariantCycle;
  uint64_t CacheBytes = 0;

  std::unique_ptr<core::AdaptService> Service;
  core::ServeCache::Stats Primed, FirstPass;
  std::vector<Request> Plan;
  uint64_t PassOf = ~0ull;
  uint64_t NextHit = 0, NextVariant = 0, NextCold = 0, NextMalformed = 0;
  uint64_t FirstPassBytes = 0;
};

} // namespace

ServeSetup perfbench::defaultServeSetup(unsigned Jobs) {
  ServeSetup S;
  S.Corpus = workloads::paperSuite();
  S.Corpus.push_back(workloads::makeStress(32, 8, 2));
  S.Corpus.push_back(workloads::makeStress(48, 12, 3));
  S.Jobs = Jobs;
  return S;
}

std::unique_ptr<Workload> perfbench::makeServe(uint64_t Seed,
                                               ServeSetup Setup,
                                               SpanRecorder *Spans) {
  return std::make_unique<Serve>(Seed, std::move(Setup), Spans);
}
