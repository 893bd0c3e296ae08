//===- bench/bench_serve.cpp - serving-layer load generator ----------------===//
//
// Drives core::AdaptService the way a shell client drives ssp-adaptd:
// framed requests over the stdin-batch protocol, measuring cold
// (content-cache miss, fresh daemon state) against warm (content-cache
// hit) serving. Reports throughput and p50/p95/p99 request latency for
// both regimes, the warm/cold ratio, and whether every served response
// was byte-identical to the one-shot library path `ssp-adapt` uses.
//
//   bench_serve --out FILE [--jobs N]
//
// Driven by the `bench-serve` CMake target, which writes
// BENCH_serve.json; scripts/check_serve_json.py validates the shape and
// (optionally, SSP_CI_SPEEDUP) gates the warm-over-cold speedup.
//
//===----------------------------------------------------------------------===//

#include "core/AdaptService.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"
#include "harness/Experiment.h"
#include "obs/Percentile.h"
#include "obs/Registry.h"
#include "profile/ProfileIO.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace ssp;

namespace {

/// One corpus entry: the request payloads a client would send plus the
/// expected response payloads computed through the one-shot library path.
struct CorpusItem {
  std::string Name;
  std::string Prog, Prof;
  std::string Report, Binary;
};

CorpusItem makeItem(const char *Name, const workloads::Workload &W) {
  CorpusItem It;
  It.Name = Name;
  ir::Program P = W.Build();
  profile::ProfileData PD = core::profileProgram(P, W.BuildMemory);
  It.Prog = P.str();
  It.Prof = profile::writeProfileText(PD);
  core::ToolOptions TO;
  TO.FatalOnVerifyError = false;
  core::PostPassTool Tool(P, PD, TO);
  core::AdaptationReport Rep;
  ir::Program Enhanced = Tool.adapt(&Rep);
  It.Report = core::renderReportText(PD.BaselineCycles, Rep);
  It.Binary = Enhanced.str();
  return It;
}

std::string frameRequest(const std::string &Id, const CorpusItem &It) {
  return "request " + Id + "\nprogram " + std::to_string(It.Prog.size()) +
         "\n" + It.Prog + "\nprofile " + std::to_string(It.Prof.size()) +
         "\n" + It.Prof + "\nend\n";
}

std::string expectedResponse(const std::string &Id, const CorpusItem &It) {
  return "response " + Id + " ok\nreport " + std::to_string(It.Report.size()) +
         "\n" + It.Report + "\nbinary " + std::to_string(It.Binary.size()) +
         "\n" + It.Binary + "\nend\n";
}

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RegimeStats {
  obs::PercentileSet Latency; ///< Per-request wall time, microseconds.
  double TotalUs = 0;
  uint64_t Requests = 0;
  double reqsPerSec() const {
    return TotalUs > 0 ? Requests * 1e6 / TotalUs : 0.0;
  }
};

void printRegime(std::FILE *F, const char *Name, const RegimeStats &R,
                 bool TrailingComma) {
  std::fprintf(F,
               "  \"%s\": {\n"
               "    \"requests\": %llu,\n"
               "    \"reqs_per_sec\": %.2f,\n"
               "    \"latency_p50_us\": %.1f,\n"
               "    \"latency_p95_us\": %.1f,\n"
               "    \"latency_p99_us\": %.1f,\n"
               "    \"latency_mean_us\": %.1f\n"
               "  }%s\n",
               Name, static_cast<unsigned long long>(R.Requests),
               R.reqsPerSec(), R.Latency.percentile(50),
               R.Latency.percentile(95), R.Latency.percentile(99),
               R.Latency.mean(), TrailingComma ? "," : "");
}

int run(const char *OutPath, unsigned Jobs) {
  std::vector<CorpusItem> Corpus;
  Corpus.push_back(makeItem("mcf", workloads::makeMcf()));
  Corpus.push_back(
      makeItem("stress_32x8x2", workloads::makeStress(32, 8, 2)));

  core::ServeOptions SO;
  SO.Jobs = Jobs;
  bool ByteIdentical = true;

  // Cold: every request lands on fresh daemon state (empty result cache,
  // no warm analyses) — the full parse + analyze + adapt + render path.
  const unsigned ColdRounds = 5;
  RegimeStats Cold;
  for (unsigned R = 0; R < ColdRounds; ++R)
    for (const CorpusItem &It : Corpus) {
      core::AdaptService S(SO);
      std::string Id = "c" + std::to_string(Cold.Requests);
      std::string Req = frameRequest(Id, It);
      double Start = nowUs();
      std::string Out = S.processBatch(Req);
      double Us = nowUs() - Start;
      Cold.Latency.record(Us);
      Cold.TotalUs += Us;
      ++Cold.Requests;
      if (Out != expectedResponse(Id, It)) {
        ByteIdentical = false;
        std::fprintf(stderr, "cold response mismatch on %s (%s)\n",
                     It.Name.c_str(), Id.c_str());
      }
    }

  // Warm: one persistent daemon, primed once per corpus item; every
  // timed request is a content-cache hit.
  obs::Registry Reg;
  SO.Metrics = &Reg;
  core::AdaptService S(SO);
  for (const CorpusItem &It : Corpus)
    S.processBatch(frameRequest("prime-" + It.Name, It));
  const unsigned WarmRounds = 200;
  RegimeStats Warm;
  for (unsigned R = 0; R < WarmRounds; ++R)
    for (const CorpusItem &It : Corpus) {
      std::string Id = "w" + std::to_string(Warm.Requests);
      std::string Req = frameRequest(Id, It);
      double Start = nowUs();
      std::string Out = S.processBatch(Req);
      double Us = nowUs() - Start;
      Warm.Latency.record(Us);
      Warm.TotalUs += Us;
      ++Warm.Requests;
      if (Out != expectedResponse(Id, It)) {
        ByteIdentical = false;
        std::fprintf(stderr, "warm response mismatch on %s (%s)\n",
                     It.Name.c_str(), Id.c_str());
      }
    }
  if (S.cache().stats().Hits != Warm.Requests)
    std::fprintf(stderr, "warning: %llu warm hits for %llu requests\n",
                 static_cast<unsigned long long>(S.cache().stats().Hits),
                 static_cast<unsigned long long>(Warm.Requests));
  S.flushLatencyMetrics();

  std::FILE *F = std::fopen(OutPath, "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath);
    return 1;
  }
  double Ratio = Cold.reqsPerSec() > 0
                     ? Warm.reqsPerSec() / Cold.reqsPerSec()
                     : 0.0;
  std::string ServeMetrics = Reg.renderJSON();
  while (!ServeMetrics.empty() && ServeMetrics.back() == '\n')
    ServeMetrics.pop_back();
  std::string Indented;
  for (char C : ServeMetrics) {
    Indented += C;
    if (C == '\n')
      Indented += "  ";
  }
  for (std::FILE *Out : {F, stdout}) {
    std::fprintf(Out, "{\n  \"jobs\": %u,\n", Jobs);
    std::fprintf(Out, "  \"corpus\": [");
    for (size_t I = 0; I < Corpus.size(); ++I)
      std::fprintf(Out, "%s\"%s\"", I ? ", " : "", Corpus[I].Name.c_str());
    std::fprintf(Out, "],\n");
    std::fprintf(Out, "  \"byte_identical\": %s,\n",
                 ByteIdentical ? "true" : "false");
    printRegime(Out, "cold", Cold, /*TrailingComma=*/true);
    printRegime(Out, "warm", Warm, /*TrailingComma=*/true);
    std::fprintf(Out, "  \"warm_over_cold\": %.2f,\n", Ratio);
    std::fprintf(Out, "  \"serve_metrics\": %s\n}\n", Indented.c_str());
  }
  std::fclose(F);
  return ByteIdentical ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  const harness::BenchArgs Args =
      harness::parseBenchArgs(argc, argv, harness::JobsFlag | harness::OutFlag);
  return run(Args.OutPath ? Args.OutPath : "BENCH_serve.json",
             Args.Jobs == 0
                 ? std::max(1u, std::thread::hardware_concurrency())
                 : Args.Jobs);
}
