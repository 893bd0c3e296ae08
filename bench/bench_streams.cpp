//===- bench/bench_streams.cpp - stream-descriptor evaluation -------------===//
//
// The headline experiment of the stream-descriptor subsystem: for every
// indirect workload of streamSuite() (hashjoin, pagerank, oahash — the
// a[b[i]] kernels DESIGN.md's "Stream descriptors" section targets), adapt
// twice — full p-slice replay (--streams off) and descriptor execution
// (--streams on) — and report both speedups over the unadapted binary on
// the in-order model. Descriptor execution serves every trigger from the
// simulator's stream engine with no spawned-context fetch/decode, so the
// delta isolates exactly what the compact encoding buys.
//
// Every adapted binary's checksum is validated against the analytically
// expected value and the streams run is audited by verify pass 8 (the
// stream.* class).
//
// The exit code is the subsystem's acceptance bar: it is 1 unless
// checksums hold, verify reports no errors (stream.* included), >= 2
// workloads carry descriptors, each of them activates its stream, takes
// steps, spawns no context on the streams arm and some on the slices arm
// (so the comparison is not vacuous), >= 2 of them beat their
// full-p-slice binary, and none falls below it.
//
//   bench_streams [--jobs N] [--no-skip] [--sample[=W:D:F[:R]]]
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace ssp;
using namespace ssp::harness;

namespace {

struct WorkloadOutcome {
  std::string Name;
  std::string Kind; ///< Attached descriptor kind ("indirect", ...).
  unsigned Descriptors = 0;
  double SpeedupSlices = 0.0;  ///< Full p-slice replay over baseline.
  double SpeedupStreams = 0.0; ///< Descriptor execution over baseline.
  uint64_t StreamActivations = 0;
  uint64_t StreamSteps = 0;
  uint64_t SpawnsSlices = 0;  ///< Spawned contexts, p-slice binary.
  uint64_t SpawnsStreams = 0; ///< Spawned contexts, streams binary.
  bool ChecksumOk = false;
  unsigned VerifyErrors = 0;       ///< All classes, streams adaptation.
  unsigned StreamVerifyErrors = 0; ///< stream.* subset.
};

WorkloadOutcome runOne(const workloads::Workload &W, const BenchArgs &Args) {
  WorkloadOutcome O;
  O.Name = W.Name;

  ir::Program Orig = W.Build();
  profile::ProfileData PD = core::profileProgram(Orig, W.BuildMemory);

  auto Adapt = [&](bool Streams, core::AdaptationReport &Rep) {
    core::ToolOptions TO;
    TO.EnableStreams = Streams;
    return core::PostPassTool(Orig, PD, TO).adapt(&Rep);
  };
  core::AdaptationReport RepSlices, RepStreams;
  ir::Program Slices = Adapt(false, RepSlices);
  ir::Program Streams = Adapt(true, RepStreams);

  O.Descriptors = static_cast<unsigned>(Streams.streams().size());
  if (O.Descriptors > 0)
    O.Kind = ir::streamKindName(Streams.streams().front().Kind);
  O.VerifyErrors = RepStreams.VerifyErrors;
  for (const verify::Diagnostic &D : RepStreams.VerifyDiags)
    if (D.isError() && D.CheckId.rfind("stream.", 0) == 0)
      ++O.StreamVerifyErrors;

  sim::MachineConfig Cfg = sim::MachineConfig::inOrder();
  Cfg.SkipIdleCycles = !Args.NoSkip;
  Cfg.Sample = Args.Sample;
  bool Ok1 = false, Ok2 = false, Ok3 = false;
  sim::SimStats Base = SuiteRunner::simulate(Orig, W, Cfg, &Ok1);
  sim::SimStats SlRun = SuiteRunner::simulate(Slices, W, Cfg, &Ok2);
  sim::SimStats StRun = SuiteRunner::simulate(Streams, W, Cfg, &Ok3);
  O.ChecksumOk = Ok1 && Ok2 && Ok3;

  O.SpeedupSlices = static_cast<double>(Base.Cycles) /
                    static_cast<double>(SlRun.Cycles);
  O.SpeedupStreams = static_cast<double>(Base.Cycles) /
                     static_cast<double>(StRun.Cycles);
  O.StreamActivations = StRun.StreamActivations;
  O.StreamSteps = StRun.StreamSteps;
  O.SpawnsSlices = SlRun.SpawnsSucceeded;
  O.SpawnsStreams = StRun.SpawnsSucceeded;
  return O;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  std::printf("=== Stream descriptors: p-slice replay vs descriptor "
              "execution (indirect suite) ===\n");
  printMachineBanner();

  const std::vector<workloads::Workload> Suite = workloads::streamSuite();
  std::vector<WorkloadOutcome> Out(Suite.size());
  support::ThreadPool Pool(Args.Jobs);
  Pool.parallelFor(Suite.size(),
                   [&](size_t I) { Out[I] = runOne(Suite[I], Args); });

  TablePrinter T;
  T.row();
  T.cell(std::string("benchmark"));
  T.cell(std::string("kind"));
  T.cell(std::string("p-slices"));
  T.cell(std::string("streams"));
  T.cell(std::string("delta"));
  T.cell(std::string("activations"));
  T.cell(std::string("steps"));
  T.cell(std::string("spawns"));
  for (const WorkloadOutcome &O : Out) {
    T.row();
    T.cell(O.Name);
    T.cell(O.Kind.empty() ? std::string("-") : O.Kind);
    T.cell(O.SpeedupSlices, 3);
    T.cell(O.SpeedupStreams, 3);
    T.cell(O.SpeedupStreams - O.SpeedupSlices, 3);
    T.cell(static_cast<unsigned long long>(O.StreamActivations));
    T.cell(static_cast<unsigned long long>(O.StreamSteps));
    T.cell(static_cast<unsigned long long>(O.SpawnsStreams));
  }
  T.print();

  unsigned Improved = 0, Regressed = 0, WithDescriptors = 0;
  unsigned TotalErrors = 0, StreamErrors = 0;
  bool ChecksumsOk = true, EngineOk = true;
  for (const WorkloadOutcome &O : Out) {
    if (O.Descriptors > 0) {
      ++WithDescriptors;
      // Descriptors replace the spawned-thread path entirely, and only a
      // slices arm that spawned something makes the comparison meaningful.
      if (O.StreamActivations == 0 || O.StreamSteps == 0 ||
          O.SpawnsStreams != 0 || O.SpawnsSlices == 0) {
        std::fprintf(stderr,
                     "%s: %llu activations, %llu steps, %llu spawns with "
                     "streams, %llu with slices\n",
                     O.Name.c_str(),
                     static_cast<unsigned long long>(O.StreamActivations),
                     static_cast<unsigned long long>(O.StreamSteps),
                     static_cast<unsigned long long>(O.SpawnsStreams),
                     static_cast<unsigned long long>(O.SpawnsSlices));
        EngineOk = false;
      }
    }
    // The stream engine serves the same triggers with no spawned-context
    // fetch/decode, so descriptor execution falling behind full replay on
    // any workload is an engine bug, not noise (the simulator is exact).
    if (O.Descriptors > 0 && O.SpeedupStreams > O.SpeedupSlices)
      ++Improved;
    if (O.SpeedupStreams < O.SpeedupSlices)
      ++Regressed;
    ChecksumsOk = ChecksumsOk && O.ChecksumOk;
    TotalErrors += O.VerifyErrors;
    StreamErrors += O.StreamVerifyErrors;
  }

  std::printf("\nstreams: %u/%zu workloads classified, %u beat full "
              "p-slices, %u regressed, %u stream verify errors\n",
              WithDescriptors, Out.size(), Improved, Regressed,
              StreamErrors);

  return (ChecksumsOk && TotalErrors == 0 && EngineOk && Regressed == 0 &&
          WithDescriptors >= 2 && Improved >= 2)
             ? 0
             : 1;
}
