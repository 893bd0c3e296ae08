//===- tools/ssp-adapt.cpp - The post-pass adaptation tool as a CLI -------===//
//
// The command-line face of the reproduction, mirroring the paper's tool
// flow (Figure 1) over the text IR format:
//
//   ssp-adapt input.ssp                  adapt; print the report
//   ssp-adapt input.ssp --emit           ... and print the enhanced binary
//   ssp-adapt input.ssp --run            ... and simulate baseline vs SSP
//                                        on both machine models (skipped
//                                        on verify errors)
//   ssp-adapt input.ssp --no-chaining    basic SP only
//   ssp-adapt input.ssp --jobs N         parallel candidate generation
//                                        (default and the explicit
//                                        spelling 0: hardware concurrency;
//                                        the output is identical for
//                                        every N)
//   ssp-adapt input.ssp --spec-deps[=T]  prune profile-cold may-dependences
//                                        from p-slices (threshold T in
//                                        [0, 1], default 0: only edges the
//                                        profile never observed). Off, the
//                                        output is bit-identical to a build
//                                        without the flag; every drop is
//                                        audited by the speculation.*
//                                        verify pass.
//   ssp-adapt input.ssp --run --throttle ... with dynamic trigger throttling
//   ssp-adapt input.ssp --verbose        trace the region/model decisions
//   ssp-adapt input.ssp --Werror         verifier warnings fail the run
//   ssp-adapt input.ssp --metrics m.json write per-stage wall times and
//                                        counters as JSON (the adaptation
//                                        output is identical either way)
//   ssp-adapt input.ssp --profile p.sspprof
//                                        use a recorded profile instead of
//                                        profiling in-process (the daemon's
//                                        input form; output is identical
//                                        when the profile matches)
//   ssp-adapt input.ssp --emit-profile p.sspprof
//                                        write the collected profile as
//                                        .sspprof text (the input form of
//                                        ssp-adaptd requests)
//   ssp-adapt input.ssp --feedback[=N]   closed-loop re-adaptation: adapt,
//                                        simulate, fold the per-trigger
//                                        prefetch fates back into per-load
//                                        directives, and re-adapt until a
//                                        fixpoint or N rounds (default 4).
//                                        Monotonic accept: the reported
//                                        binary is the best simulated round,
//                                        never worse than one-shot.
//                                        --feedback=0 (and omitting the
//                                        flag) is bit-identical to the
//                                        ordinary pipeline.
//   ssp-adapt input.ssp --feedback --sample[=W:D:F[:R]]
//                                        run the per-round simulations under
//                                        the two-level sampling plan instead
//                                        of in full detail
//   ssp-adapt input.ssp --streams        classify chained slices as stream
//                                        descriptors (affine / pointer-chase
//                                        / indirect) executed directly by
//                                        the simulator's stream engine;
//                                        irregular slices keep full p-slice
//                                        replay. Omitting the flag is
//                                        bit-identical to older builds.
//
// The adapted binary is verified (see src/verify/) before the tool
// returns: verification errors print to stderr and exit non-zero.
//
// The input file contains the program (and the initial memory image in
// `data:` sections); see examples/listsum.ssp.
//
//===----------------------------------------------------------------------===//

#include "core/Feedback.h"
#include "core/OptionKeys.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "profile/ProfileIO.h"
#include "sim/Run.h"
#include "support/FlagParser.h"
#include "verify/Diagnostic.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ssp;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <input.ssp> [--emit] [--run [--throttle]] "
               "[--no-chaining] [--jobs N] [--spec-deps[=T]] [--streams] "
               "[--verbose] [--Werror] [--metrics <out.json>] "
               "[--profile <in.sspprof>] "
               "[--emit-profile <out.sspprof>] "
               "[--feedback[=N] [--sample[=W:D:F[:R]]]]\n",
               Argv0);
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);
  const char *MetricsPath = nullptr;
  const char *ProfilePath = nullptr;
  const char *EmitProfilePath = nullptr;
  bool Emit = false, Run = false, Throttle = false, Werror = false;
  bool SampleGiven = false;
  sim::SamplingPlan Sample;
  core::ToolOptions Opts;
  // Report verification findings here instead of aborting inside the
  // library; the exit status reflects them below.
  Opts.FatalOnVerifyError = false;
  // CLI default: parallel candidate generation at hardware concurrency
  // (the library default is the serial path; --jobs N overrides, with 0
  // the explicit auto spelling).
  Opts.Jobs = 0;
  obs::Registry Metrics;
  std::vector<std::string> Paths;
  support::FlagParser Parser(argc, argv);
  core::addToolFlags(Parser, Opts);
  Parser.flag("--emit", Emit)
      .flag("--run", Run)
      .flag("--jobs", Opts.Jobs, 0, 512)
      .flag("--metrics", MetricsPath)
      .flag("--profile", ProfilePath)
      .flag("--emit-profile", EmitProfilePath)
      .flagEq("--sample",
              [&](const char *V) {
                SampleGiven = true;
                if (!V) {
                  Sample = sim::SamplingPlan::defaults();
                  return true;
                }
                return sim::parseSamplingPlan(V, Sample);
              })
      .flag("--throttle", Throttle)
      .flag("--verbose", Opts.Verbose)
      .flag("--Werror", Werror);
  if (!Parser.parse(&Paths))
    return usage(argv[0]);
  if (MetricsPath)
    Opts.Metrics = &Metrics;
  if (Paths.size() != 1)
    return usage(argv[0]);
  // --throttle configures the --run simulations and --sample the feedback
  // rounds; without its consumer either would silently do nothing.
  if ((Throttle && !Run) || (SampleGiven && Opts.FeedbackRounds == 0))
    return usage(argv[0]);
  const char *Path = Paths[0].c_str();

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  ir::Program Orig;
  ir::DataImage Data;
  std::string Err;
  if (!ir::parseProgram(Buf.str(), Orig, Err, &Data)) {
    std::fprintf(stderr, "%s: parse error: %s\n", Path, Err.c_str());
    return 1;
  }
  verify::DiagnosticEngine DE;
  ir::verifyStructural(Orig, DE);
  if (DE.hasErrors()) {
    for (const verify::Diagnostic &D : DE.diagnostics())
      std::fprintf(stderr, "%s: %s\n", Path, D.Message.c_str());
    return 1;
  }
  const sim::MemoryBuilder Image = sim::imageOf(Data);

  // Pass 1 (Figure 1): profile the original binary on its data image —
  // or load a recorded `.sspprof` (the form adaptation requests arrive
  // in over the daemon protocol). The in-process profile's timing pass is
  // the in-order baseline --run prints.
  profile::ProfileData PD;
  sim::RunOutcome ProfileRun;
  if (ProfilePath) {
    std::ifstream PIn(ProfilePath);
    if (!PIn) {
      std::fprintf(stderr, "error: cannot open '%s'\n", ProfilePath);
      return 1;
    }
    std::stringstream PBuf;
    PBuf << PIn.rdbuf();
    if (!profile::parseProfileText(PBuf.str(), PD, Err)) {
      std::fprintf(stderr, "%s: parse error: %s\n", ProfilePath,
                   Err.c_str());
      return 1;
    }
    if (!profile::checkProfileMatches(PD, Orig, Err)) {
      std::fprintf(stderr, "%s: profile: %s\n", ProfilePath, Err.c_str());
      return 1;
    }
  } else {
    PD = core::profileProgram(Orig, Image, &ProfileRun);
  }
  if (EmitProfilePath) {
    std::ofstream POut(EmitProfilePath);
    POut << profile::writeProfileText(PD);
    if (!POut) {
      std::fprintf(stderr, "error: cannot write profile to '%s'\n",
                   EmitProfilePath);
      return 1;
    }
  }

  // Pass 2: adapt — one-shot, or the closed feedback loop when
  // --feedback asked for re-adaptation rounds.
  core::AdaptationReport Rep;
  ir::Program Enhanced;
  std::string FeedbackTrace;
  if (Opts.FeedbackRounds > 0) {
    core::FeedbackResult FR =
        core::runFeedbackLoop(Orig, PD, Opts, Image, Sample);
    Enhanced = std::move(FR.Best);
    Rep = std::move(FR.BestReport);
    FeedbackTrace = core::renderFeedbackText(FR);
  } else {
    core::PostPassTool Tool(Orig, PD, Opts);
    Enhanced = Tool.adapt(&Rep);
  }

  // The canonical report rendering — shared with ssp-adaptd, whose
  // `report` response payload must be byte-identical to this block.
  std::fputs(core::renderReportText(PD.BaselineCycles, Rep).c_str(),
             stdout);
  std::fputs(FeedbackTrace.c_str(), stdout);

  // Verification findings over the adapted binary (collected by the tool;
  // errors mean the rewriter emitted an unsafe adaptation).
  for (const verify::Diagnostic &D : Rep.VerifyDiags)
    if (D.isError() || Opts.Verbose || Werror)
      std::fprintf(stderr, "%s\n", verify::renderText(D, &Enhanced).c_str());
  bool VerifyFailed =
      Rep.VerifyErrors != 0 || (Werror && Rep.VerifyWarnings != 0);

  if (MetricsPath) {
    if (!Metrics.writeJSON(MetricsPath)) {
      std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                   MetricsPath);
      return 1;
    }
    std::printf("metrics: %zu counters, %zu timers -> %s\n",
                Metrics.numCounters(), Metrics.numTimers(), MetricsPath);
  }

  if (Emit)
    std::printf("\n%s", Enhanced.str().c_str());

  if (Run && Rep.VerifyErrors == 0) { // Never simulate an unsafe binary.
    ir::LinkedProgram OrigLP = ir::LinkedProgram::link(Orig);
    ir::LinkedProgram EnhancedLP = ir::LinkedProgram::link(Enhanced);
    for (auto Pipe : {sim::PipelineKind::InOrder,
                      sim::PipelineKind::OutOfOrder}) {
      sim::MachineConfig Cfg = Pipe == sim::PipelineKind::InOrder
                                   ? sim::MachineConfig::inOrder()
                                   : sim::MachineConfig::outOfOrder();
      Cfg.EnableSSPThrottle = Throttle;
      sim::SimStats Base = !ProfilePath && Cfg == sim::MachineConfig::inOrder()
                               ? ProfileRun.Stats
                               : sim::runProgram(OrigLP, Image, Cfg).Stats;
      sim::SimStats Ssp = sim::runProgram(EnhancedLP, Image, Cfg).Stats;
      std::printf("\n%s: baseline %llu cycles, SSP %llu cycles "
                  "(%.2fx); %llu triggers, %llu spawns\n",
                  Pipe == sim::PipelineKind::InOrder ? "in-order" : "ooo",
                  static_cast<unsigned long long>(Base.Cycles),
                  static_cast<unsigned long long>(Ssp.Cycles),
                  static_cast<double>(Base.Cycles) /
                      static_cast<double>(Ssp.Cycles),
                  static_cast<unsigned long long>(Ssp.TriggersFired),
                  static_cast<unsigned long long>(Ssp.SpawnsSucceeded));
    }
  }
  return VerifyFailed ? 1 : 0;
}
