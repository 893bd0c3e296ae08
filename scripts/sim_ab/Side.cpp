//===- scripts/sim_ab/Side.cpp - One revision's programs and operations ---===//
//
// Compiled once per revision (see sim_ab.sh). The programs are perfbench's
// `pipeline` set: the paper suite adapted plainly and the stream suite
// with descriptors, every one built, profiled, adapted and linked up
// front. Only the stable entry points are used (Workload,
// core::profileProgram, core::PostPassTool, ir::LinkedProgram::link,
// sim::Simulator::run), so the same source builds against older trees.
//
//===----------------------------------------------------------------------===//

#include "SimAb.h"

#include "core/PostPassTool.h"
#include "ir/Program.h"
#include "mem/SimMemory.h"
#include "sim/Run.h"
#include "sim/Simulator.h"
#include "workloads/Workload.h"

#include <chrono>
#include <deque>

namespace ssp {
namespace {

/// FNV-1a over 64-bit words.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ULL;
  void add(uint64_t V) {
    for (unsigned B = 0; B < 8; ++B)
      H = (H ^ ((V >> (8 * B)) & 0xff)) * 0x100000001b3ULL;
  }
  template <size_t N> void add(const uint64_t (&A)[N]) {
    for (uint64_t V : A)
      add(V);
  }
};

/// Every counter of \p S, the load profile and the attribution included.
uint64_t digestOf(const sim::SimStats &S) {
  Digest D;
  for (uint64_t V :
       {S.Cycles, S.MainInsts, S.SpecInsts, S.TriggersFired,
        S.TriggersIgnored, S.SpawnsSucceeded, S.SpawnsDropped,
        S.SpecWildLoads, S.SpecPrefetches, S.UsefulPrefetches,
        S.ThrottleEvents, S.StreamActivations, S.StreamSteps, S.Branches,
        S.BranchMispredicts, S.SkippedCycles, S.SkipEvents})
    D.add(V);
  D.add(S.CatCycles);
  const cache::CacheHierarchy::Totals &T = S.CacheTotals;
  D.add(T.Accesses);
  D.add(T.Hits);
  D.add(T.Partials);
  D.add(T.FillBufferStallCycles);
  D.add(T.TLBMisses);
  for (const auto &[Sid, L] : S.LoadProfile) {
    D.add(Sid);
    D.add(L.Accesses);
    D.add(L.MissCycles);
    D.add(L.Hits);
    D.add(L.Partials);
  }
  for (const sim::PrefetchAttribution &A : S.Attribution) {
    for (uint64_t V :
         {A.Trigger, A.Slice, A.Spawns, uint64_t(A.MaxChainDepth),
          A.LateCycles})
      D.add(V);
    D.add(A.Fates);
  }
  return D.H;
}

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

class RevisionSide final : public simab::Side {
public:
  RevisionSide() {
    for (workloads::Workload &W : workloads::paperSuite())
      add(std::move(W), false);
    for (workloads::Workload &W : workloads::streamSuite())
      add(std::move(W), true);
  }

  size_t numPrograms() const override { return Programs.size(); }
  const std::string &name(size_t P) const override {
    return Programs[P].W.Name;
  }

  simab::Result run(size_t P, simab::Kind K) override {
    Program &Prog = Programs[P];
    simab::Result R;
    if (K == simab::Profile) {
      sim::RunOutcome Baseline;
      auto Start = std::chrono::steady_clock::now();
      profile::ProfileData PD =
          core::profileProgram(Prog.Orig, Prog.W.BuildMemory, &Baseline);
      R.Ms = msSince(Start);
      R.Digest = digestOf(Baseline.Stats);
      R.Checksum = Baseline.Result.value_or(0);
      R.ChecksumOk = Baseline.checksumOk();
      return R;
    }
    mem::SimMemory Mem;
    auto Start = std::chrono::steady_clock::now();
    uint64_t Expected = Prog.W.BuildMemory(Mem);
    if (K == simab::Image) {
      R.Ms = msSince(Start);
      R.Digest = Mem.numPages();
      R.Checksum = Expected;
      R.ChecksumOk = true;
      return R;
    }
    bool OOO = K == simab::BaseOOO || K == simab::SspOOO;
    bool Ssp = K == simab::SspIO || K == simab::SspOOO;
    sim::MachineConfig Cfg = OOO ? sim::MachineConfig::outOfOrder()
                                 : sim::MachineConfig::inOrder();
    Start = std::chrono::steady_clock::now();
    sim::Simulator Sim(Cfg, Prog.Linked[Ssp], Mem);
    sim::SimStats S = Sim.run();
    R.Ms = msSince(Start);
    R.Digest = digestOf(S);
    bool Mapped = false;
    R.Checksum = Mem.readMaybe(workloads::ResultAddr, Mapped);
    R.ChecksumOk = Mapped && R.Checksum == Expected;
    return R;
  }

private:
  /// A linked program refers to its ir::Program, so a Program never moves
  /// once linked (the deque keeps elements in place).
  struct Program {
    workloads::Workload W;
    ir::Program Orig, Enhanced;
    ir::LinkedProgram Linked[2]; ///< Baseline, SSP binary.
  };

  void add(workloads::Workload W, bool Streams) {
    Program &P = Programs.emplace_back();
    P.W = std::move(W);
    P.Orig = P.W.Build();
    core::ToolOptions TO;
    TO.EnableStreams = Streams;
    TO.FatalOnVerifyError = false;
    profile::ProfileData PD = core::profileProgram(P.Orig, P.W.BuildMemory);
    P.Enhanced = core::PostPassTool(P.Orig, PD, TO).adapt();
    P.Linked[0] = ir::LinkedProgram::link(P.Orig);
    P.Linked[1] = ir::LinkedProgram::link(P.Enhanced);
  }

  std::deque<Program> Programs;
};

} // namespace
} // namespace ssp

std::unique_ptr<simab::Side> ssp::makeSimAbSide() {
  return std::make_unique<RevisionSide>();
}
