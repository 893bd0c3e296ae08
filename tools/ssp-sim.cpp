//===- tools/ssp-sim.cpp - Run a text-IR program on the Itanium models ----===//
//
// The simulator's standalone face: run one or more .ssp programs (with
// their `data:` images) on a chosen machine configuration and print the
// cycle counts and the Figure-10 cycle-accounting breakdown. No
// adaptation is performed — the input may already contain chk.c triggers
// and slice attachments (e.g. the output of `ssp-adapt --emit`).
//
//   ssp-sim prog.ssp                  in-order model
//   ssp-sim a.ssp b.ssp c.ssp        several inputs, simulated concurrently
//   ssp-sim prog.ssp --ooo            out-of-order model
//   ssp-sim prog.ssp --contexts N     N hardware thread contexts
//   ssp-sim prog.ssp --memlat N       memory latency in cycles
//   ssp-sim prog.ssp --icount         ICOUNT fetch policy
//   ssp-sim prog.ssp --throttle       dynamic trigger throttling
//   ssp-sim prog.ssp --no-skip        tick every cycle (no idle skipping)
//   ssp-sim a.ssp b.ssp --jobs N      simulation parallelism (default and
//                                     the explicit spelling --jobs 0:
//                                     hardware concurrency)
//   ssp-sim prog.ssp --sample[=W:D:F[:R]] two-level sampled simulation
//                                     (warmup:detail:fastforward interval
//                                     lengths in main-thread instructions;
//                                     bare --sample uses the default plan)
//   ssp-sim prog.ssp --report=attrib  per-trigger prefetch-lifecycle table
//   ssp-sim prog.ssp --emit-attrib out.sspprof
//                                     serialize the per-trigger fate
//                                     rollups as `attrib`/`fates` profile
//                                     records (one input) — the evidence
//                                     `ssp-adapt --feedback` rounds and
//                                     offline re-adaptation consume
//   ssp-sim prog.ssp --trace out.json Chrome trace_event JSON of the
//                                     spawn/prefetch lifecycle (one input)
//
// With several inputs each file is simulated as an independent job on a
// thread pool; output is buffered per file and printed in command-line
// order, so the report is identical for any --jobs value.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "obs/TraceSink.h"
#include "profile/Profile.h"
#include "profile/ProfileIO.h"
#include "sim/Run.h"
#include "support/FlagParser.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "verify/Diagnostic.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace ssp;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <input.ssp>... [--ooo] [--contexts N] [--memlat N] "
               "[--icount] [--throttle] [--no-skip] [--jobs N] "
               "[--sample[=W:D:F[:R]]] [--report=attrib] "
               "[--emit-attrib <out.sspprof>] [--trace <out.json>]\n",
               Argv0);
  return 1;
}

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

/// Locates \p Sid in the linked image and renders it as
/// "func.bB+K" (block index and instruction offset within the block),
/// the InstRef notation used by the adaptation report.
std::string describeSid(const ir::LinkedProgram &LP, ir::StaticId Sid) {
  for (uint32_t Addr = 0; Addr < LP.size(); ++Addr) {
    const ir::LinkedInst &LI = LP.at(Addr);
    if (LI.Sid != Sid)
      continue;
    const ir::Function &F = LP.program().func(LI.Func);
    std::string Ref = F.getName();
    appendf(Ref, ".b%u+%u", LI.Block,
            Addr - LP.blockStart(LI.Func, LI.Block));
    return Ref;
  }
  std::string Ref;
  appendf(Ref, "sid:%llx", static_cast<unsigned long long>(Sid));
  return Ref;
}

/// The --report=attrib table: one row per originating trigger with its
/// slice, spawn statistics and the fate breakdown of every speculative
/// line it caused (the software analogue of the paper's Figure 9).
void appendAttribReport(const sim::SimStats &S, const ir::LinkedProgram &LP,
                        std::string &Out) {
  appendf(Out, "prefetch attribution:\n");
  if (S.Attribution.empty()) {
    appendf(Out, "  (no attributed speculative accesses)\n");
    return;
  }
  TablePrinter T;
  T.row();
  T.cell("trigger");
  T.cell("slice");
  T.cell("spawns");
  T.cell("depth");
  T.cell("accesses");
  for (unsigned F = 0; F < sim::NumPrefetchFates; ++F)
    T.cell(sim::prefetchFateName(static_cast<sim::PrefetchFate>(F)));
  T.cell("late-cyc");
  for (const sim::PrefetchAttribution &A : S.Attribution) {
    T.row();
    T.cell(describeSid(LP, A.Trigger));
    T.cell(A.Slice
               ? LP.program().func(ir::staticIdFunc(A.Slice)).getName()
               : std::string("-"));
    T.cell(static_cast<unsigned long long>(A.Spawns));
    T.cell(static_cast<unsigned long long>(A.MaxChainDepth));
    T.cell(static_cast<unsigned long long>(A.prefetches()));
    for (unsigned F = 0; F < sim::NumPrefetchFates; ++F)
      T.cell(static_cast<unsigned long long>(A.Fates[F]));
    T.cell(static_cast<unsigned long long>(A.LateCycles));
  }
  Out += T.toString();
  uint64_t Attributed = S.attributedPrefetches();
  appendf(Out,
          "attributed %llu of %llu speculative accesses (%.1f%%)\n",
          static_cast<unsigned long long>(Attributed),
          static_cast<unsigned long long>(S.SpecPrefetches),
          S.SpecPrefetches
              ? 100.0 * static_cast<double>(Attributed) /
                    static_cast<double>(S.SpecPrefetches)
              : 0.0);
}

/// Parses, verifies and simulates one input file; the report (or the
/// errors) go to \p Out so concurrent jobs never interleave output.
/// Returns false on any failure.
bool simulateFile(const std::string &Path, const sim::MachineConfig &Cfg,
                  bool Banner, std::string &Out, bool ReportAttrib = false,
                  obs::TraceSink *Trace = nullptr,
                  std::string *AttribProfile = nullptr) {
  std::ifstream In(Path);
  if (!In) {
    appendf(Out, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  ir::Program P;
  ir::DataImage Data;
  std::string Err;
  if (!ir::parseProgram(Buf.str(), P, Err, &Data)) {
    appendf(Out, "%s: parse error: %s\n", Path.c_str(), Err.c_str());
    return false;
  }
  verify::DiagnosticEngine DE;
  ir::verifyStructural(P, DE);
  if (DE.hasErrors()) {
    for (const verify::Diagnostic &D : DE.diagnostics())
      appendf(Out, "%s: %s\n", Path.c_str(), D.Message.c_str());
    return false;
  }

  ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  sim::SimStats S = sim::runProgram(LP, sim::imageOf(Data), Cfg, Trace).Stats;

  if (Banner)
    appendf(Out, "=== %s ===\n", Path.c_str());
  appendf(Out, "%s, %u contexts, mem %u cycles%s%s\n",
          Cfg.Pipeline == sim::PipelineKind::InOrder ? "in-order"
                                                     : "out-of-order",
          Cfg.NumThreads, Cfg.Cache.MemLatency,
          Cfg.Fetch == sim::FetchPolicy::ICount ? ", ICOUNT" : "",
          Cfg.EnableSSPThrottle ? ", throttle" : "");
  appendf(Out,
          "cycles: %llu   main insts: %llu (IPC %.2f)   spec insts: %llu\n",
          static_cast<unsigned long long>(S.Cycles),
          static_cast<unsigned long long>(S.MainInsts), S.ipc(),
          static_cast<unsigned long long>(S.SpecInsts));
  if (S.Sampled)
    appendf(Out,
            "sampled (plan %s): %llu detail intervals, %llu detail + %llu "
            "functional insts; stats extrapolated\n",
            Cfg.Sample.str().c_str(),
            static_cast<unsigned long long>(S.SampleIntervals),
            static_cast<unsigned long long>(S.SampleDetailInsts),
            static_cast<unsigned long long>(S.SampleFunctionalInsts));
  appendf(Out, "cycle breakdown:");
  for (unsigned C = 0; C < sim::NumCycleCats; ++C)
    appendf(Out, " %s %.1f%%",
            sim::cycleCatName(static_cast<sim::CycleCat>(C)),
            100.0 * static_cast<double>(S.CatCycles[C]) /
                static_cast<double>(S.Cycles));
  appendf(Out, "\n");
  appendf(Out, "branches: %llu (%.2f%% mispredicted)   TLB misses: %llu\n",
          static_cast<unsigned long long>(S.Branches),
          S.Branches ? 100.0 * static_cast<double>(S.BranchMispredicts) /
                           static_cast<double>(S.Branches)
                     : 0.0,
          static_cast<unsigned long long>(S.CacheTotals.TLBMisses));
  if (S.TriggersFired + S.TriggersIgnored > 0)
    appendf(Out,
            "SSP: %llu triggers fired (%llu ignored), %llu spawns "
            "(%llu dropped), %llu/%llu useful prefetches, %llu "
            "throttle events\n",
            static_cast<unsigned long long>(S.TriggersFired),
            static_cast<unsigned long long>(S.TriggersIgnored),
            static_cast<unsigned long long>(S.SpawnsSucceeded),
            static_cast<unsigned long long>(S.SpawnsDropped),
            static_cast<unsigned long long>(S.UsefulPrefetches),
            static_cast<unsigned long long>(S.SpecPrefetches),
            static_cast<unsigned long long>(S.ThrottleEvents));
  if (ReportAttrib)
    appendAttribReport(S, LP, Out);
  if (AttribProfile) {
    // The fate rollups as profile records: `funcs` sizes the namespace the
    // parser bounds sids against, `baseline` carries this run's cycles so
    // downstream speedup math has a denominator.
    profile::ProfileData PD;
    PD.BaselineCycles = S.Cycles;
    PD.BlockCounts.resize(P.numFuncs());
    PD.EdgeCounts.resize(P.numFuncs());
    PD.HasAttrib = true;
    PD.Attrib = S.Attribution;
    *AttribProfile = profile::writeProfileText(PD);
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Paths;
  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  unsigned Jobs = 0; // 0 = hardware concurrency.
  bool Ooo = false, ICount = false, Throttle = false, NoSkip = false;
  bool ReportAttrib = false;
  const char *TracePath = nullptr;
  const char *AttribPath = nullptr;
  support::FlagParser Parser(argc, argv);
  Parser.flag("--ooo", Ooo)
      .flag("--contexts", Cfg.NumThreads, 1, 8)
      .flag("--memlat", Cfg.Cache.MemLatency, 1, 1000000)
      .flag("--icount", ICount)
      .flag("--throttle", Throttle)
      .flag("--no-skip", NoSkip)
      .flag("--jobs", Jobs, 0, 512)
      .flag("--trace", TracePath)
      .flag("--emit-attrib", AttribPath)
      .flagEq("--report",
              [&ReportAttrib](const char *V) {
                if (!V || std::strcmp(V, "attrib") != 0)
                  return false;
                ReportAttrib = true;
                return true;
              })
      .flagEq("--sample", [&Cfg](const char *V) {
        if (!V) {
          Cfg.Sample = sim::SamplingPlan::defaults();
          return true;
        }
        return sim::parseSamplingPlan(V, Cfg.Sample);
      });
  if (!Parser.parse(&Paths))
    return usage(argv[0]);
  if (Ooo)
    Cfg.Pipeline = sim::PipelineKind::OutOfOrder;
  if (ICount)
    Cfg.Fetch = sim::FetchPolicy::ICount;
  Cfg.EnableSSPThrottle = Throttle;
  Cfg.SkipIdleCycles = !NoSkip;
  if (Paths.empty())
    return usage(argv[0]);
  if (TracePath && Paths.size() != 1) {
    std::fprintf(stderr, "error: --trace requires a single input file\n");
    return usage(argv[0]);
  }
  if (AttribPath && Paths.size() != 1) {
    std::fprintf(stderr,
                 "error: --emit-attrib requires a single input file\n");
    return usage(argv[0]);
  }
  if (TracePath && Cfg.Sample.enabled()) {
    // The obs contract under sampling: an extrapolated run has no faithful
    // per-event stream, so event tracing is rejected rather than silently
    // emitting a truncated trace.
    std::fprintf(stderr, "error: --trace cannot be combined with --sample "
                         "(sampled runs do not emit event traces)\n");
    return usage(argv[0]);
  }

  obs::TraceSink Sink;

  // Each input is an independent simulation job; buffered output keeps
  // the report in command-line order whatever the schedule.
  std::vector<std::string> Outputs(Paths.size());
  std::vector<char> FileOk(Paths.size(), 1);
  std::string AttribProfile;
  support::ThreadPool Pool(Paths.size() == 1 ? 1 : Jobs);
  Pool.parallelFor(Paths.size(), [&](size_t I) {
    FileOk[I] = simulateFile(Paths[I], Cfg, Paths.size() > 1, Outputs[I],
                             ReportAttrib, TracePath ? &Sink : nullptr,
                             AttribPath ? &AttribProfile : nullptr)
                    ? 1
                    : 0;
  });

  bool AllOk = true;
  for (size_t I = 0; I < Paths.size(); ++I) {
    if (I > 0 && Paths.size() > 1)
      std::printf("\n");
    std::fputs(Outputs[I].c_str(), FileOk[I] ? stdout : stderr);
    AllOk = AllOk && FileOk[I];
  }
  if (AllOk && AttribPath) {
    std::ofstream AF(AttribPath);
    if (!AF || !(AF << AttribProfile)) {
      std::fprintf(stderr, "error: cannot write attribution profile to '%s'\n",
                   AttribPath);
      return 1;
    }
    // Count is derivable from the text, but printing it makes a truncated
    // simulation (zero triggers reached) obvious at the console.
    size_t Fates = 0;
    for (size_t Pos = AttribProfile.find("\nfates ");
         Pos != std::string::npos; Pos = AttribProfile.find("\nfates ", Pos + 1))
      ++Fates;
    std::printf("attribution: %zu trigger record(s) -> %s\n", Fates,
                AttribPath);
  }
  if (AllOk && TracePath) {
    if (!Sink.writeChromeJSON(TracePath)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n", TracePath);
      return 1;
    }
    std::printf("trace: %llu events (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(Sink.recorded()),
                static_cast<unsigned long long>(Sink.dropped()), TracePath);
  }
  return AllOk ? 0 : 1;
}
