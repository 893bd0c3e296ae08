//===- perfbench/bench/Pipeline.cpp - The `pipeline` workload -------------===//
//
// The paper's unit of work, one program per op: build -> memory image ->
// profile -> adapt -> link -> the four simulations (baseline and SSP
// binary on the in-order and the out-of-order model). Each layer is
// called directly; harness::SuiteRunner would abort on a checksum
// mismatch and its caches would turn repeated passes into no-ops.
//
//===----------------------------------------------------------------------===//

#include "bench/Bench.h"

#include "core/PostPassTool.h"
#include "ir/Program.h"
#include "sim/Simulator.h"

#include <optional>

using namespace ssp;
using namespace perfbench;

namespace {

enum SimKind : unsigned { BaseIO, SspIO, BaseOOO, SspOOO, NumSimKinds };
const char *const SimSpan[NumSimKinds] = {"sim.base_io", "sim.ssp_io",
                                          "sim.base_ooo", "sim.ssp_ooo"};
const char *const SimLabel[NumSimKinds] = {"base in-order", "SSP in-order",
                                           "base OOO", "SSP OOO"};

/// What one program's pipeline produced; the first run of each program
/// is the reference every later run must reproduce exactly.
struct Outcome {
  sim::SimStats Stats[NumSimKinds];
  unsigned Slices = 0;
  uint64_t OutputBytes = 0;

  bool sameAs(const Outcome &O) const {
    for (unsigned K = 0; K < NumSimKinds; ++K)
      if (Stats[K].Cycles != O.Stats[K].Cycles ||
          Stats[K].MainInsts != O.Stats[K].MainInsts ||
          Stats[K].SpecInsts != O.Stats[K].SpecInsts)
        return false;
    return Slices == O.Slices && OutputBytes == O.OutputBytes;
  }
};

class Pipeline final : public Workload {
public:
  Pipeline(uint64_t Seed, std::vector<PipelineProgram> Programs)
      : Seed(Seed), Programs(std::move(Programs)),
        Reference(this->Programs.size()) {}

  /// Set-up's warm-up: the first program once, untimed and unchecked
  /// (the timed passes check it), so code and allocator are warm.
  void warmUp(SpanRecorder *Spans) {
    Outcome Out;
    runProgram(Programs.front(), Spans, Out);
  }

  size_t passLength() const override { return Programs.size(); }

  bool tailTracksHost() const override { return true; }

  void restart(obs::Registry *M) override {
    Metrics = M;
    for (uint64_t &C : TotalCycles)
      C = 0;
    TotalInsts = 0;
  }

  OpResult runOp(uint64_t Seq, SpanRecorder *Spans) override {
    size_t N = Programs.size();
    size_t Idx = passOrder(Seed, Seq / N, N)[Seq % N];
    Outcome Out;
    OpResult R = runProgram(Programs[Idx], Spans, Out);
    R.Input = Idx;
    for (unsigned K = 0; K < NumSimKinds; ++K) {
      TotalCycles[K] += Out.Stats[K].Cycles;
      TotalInsts += Out.Stats[K].MainInsts + Out.Stats[K].SpecInsts;
    }
    if (!R.Error.empty())
      return R;
    if (!Reference[Idx])
      Reference[Idx] = std::move(Out);
    else if (!Out.sameAs(*Reference[Idx]))
      R.Error = Programs[Idx].W.Name + ": counts differ from its first run";
    return R;
  }

  CountMap counts() const override {
    CountMap C;
    uint64_t Cycles = 0, Insts = 0, Slices = 0, Bytes = 0;
    for (const std::optional<Outcome> &O : Reference) {
      if (!O)
        continue;
      for (const sim::SimStats &S : O->Stats) {
        Cycles += S.Cycles;
        Insts += S.MainInsts;
      }
      Slices += O->Slices;
      Bytes += O->OutputBytes;
    }
    C["sim.cycles"] = std::to_string(Cycles);
    C["sim.main_insts"] = std::to_string(Insts);
    C["adapt.slices"] = std::to_string(Slices);
    C["core.output_bytes"] = std::to_string(Bytes);
    C["speedup_io_gmean"] = formatDouble(speedup(BaseIO, SspIO));
    C["speedup_ooo_gmean"] = formatDouble(speedup(BaseOOO, SspOOO));
    return C;
  }

  void layerMetrics(MetricMap &M, size_t,
                    const SpanRecorder &Spans) const override {
    // Host time per simulated cycle and per simulated instruction, over
    // every traced op.
    double IoMs = Spans.totalMs("sim.base_io") + Spans.totalMs("sim.ssp_io");
    double OooMs =
        Spans.totalMs("sim.base_ooo") + Spans.totalMs("sim.ssp_ooo");
    auto PerCycle = [](double Ms, uint64_t Cycles) {
      return Cycles ? Ms * 1e6 / static_cast<double>(Cycles) : 0.0;
    };
    M["sim.ns_per_cycle_io"].Value =
        PerCycle(IoMs, TotalCycles[BaseIO] + TotalCycles[SspIO]);
    M["sim.ns_per_cycle_ooo"].Value =
        PerCycle(OooMs, TotalCycles[BaseOOO] + TotalCycles[SspOOO]);
    if (IoMs + OooMs > 0)
      M["sim_minst_per_s"].Value =
          static_cast<double>(TotalInsts) / ((IoMs + OooMs) / 1000.0) / 1e6;

    // Modelled counts: one pass over the suite (every program's reference
    // run), all four simulations summed.
    uint64_t Cycles = 0, Main = 0, Spec = 0, Cat[sim::NumCycleCats] = {};
    uint64_t Skipped = 0, SkipEvents = 0, Fired = 0, Ignored = 0;
    uint64_t Spawned = 0, Dropped = 0, SpecPf = 0, UsefulPf = 0, Streams = 0;
    uint64_t Accesses = 0, MemHits = 0, FillStall = 0, Tlb = 0;
    uint64_t Branches = 0, Mispredicts = 0, Bytes = 0;
    for (const std::optional<Outcome> &O : Reference) {
      if (!O)
        continue;
      Bytes += O->OutputBytes;
      for (const sim::SimStats &S : O->Stats) {
        Cycles += S.Cycles;
        Main += S.MainInsts;
        Spec += S.SpecInsts;
        for (unsigned C = 0; C < sim::NumCycleCats; ++C)
          Cat[C] += S.CatCycles[C];
        Skipped += S.SkippedCycles;
        SkipEvents += S.SkipEvents;
        Fired += S.TriggersFired;
        Ignored += S.TriggersIgnored;
        Spawned += S.SpawnsSucceeded;
        Dropped += S.SpawnsDropped;
        SpecPf += S.SpecPrefetches;
        UsefulPf += S.UsefulPrefetches;
        Streams += S.StreamActivations;
        Accesses += S.CacheTotals.Accesses;
        MemHits += S.CacheTotals.Hits[static_cast<unsigned>(cache::Level::Mem)];
        FillStall += S.CacheTotals.FillBufferStallCycles;
        Tlb += S.CacheTotals.TLBMisses;
        Branches += S.Branches;
        Mispredicts += S.BranchMispredicts;
      }
    }
    auto Share = [](uint64_t Part, uint64_t Whole) {
      return Whole ? static_cast<double>(Part) / static_cast<double>(Whole)
                   : 0.0;
    };
    auto Set = [&M](const char *Name, uint64_t V) {
      M[Name].Value = static_cast<double>(V);
    };
    Set("sim.cycles", Cycles);
    Set("sim.main_insts", Main);
    Set("sim.spec_insts", Spec);
    const char *CatNames[sim::NumCycleCats] = {
        "sim.cat_cycles.l3",         "sim.cat_cycles.l2",
        "sim.cat_cycles.l1",         "sim.cat_cycles.cache_exec",
        "sim.cat_cycles.exec",       "sim.cat_cycles.other"};
    for (unsigned C = 0; C < sim::NumCycleCats; ++C)
      Set(CatNames[C], Cat[C]);
    M["sim.skipped_cycle_share"].Value = Share(Skipped, Cycles);
    Set("sim.skip_events", SkipEvents);
    Set("sim.triggers_fired", Fired);
    M["sim.trigger_ignored_share"].Value = Share(Ignored, Fired + Ignored);
    M["sim.spawn_dropped_share"].Value = Share(Dropped, Spawned + Dropped);
    M["sim.prefetch_useful_share"].Value = Share(UsefulPf, SpecPf);
    Set("sim.stream_activations", Streams);
    Set("cache.accesses", Accesses);
    M["cache.mem_share"].Value = Share(MemHits, Accesses);
    Set("cache.fill_buffer_stall_cycles", FillStall);
    Set("cache.tlb_misses", Tlb);
    M["branch.mispredict_share"].Value = Share(Mispredicts, Branches);
    M["speedup_io_gmean"].Value = speedup(BaseIO, SspIO);
    M["speedup_ooo_gmean"].Value = speedup(BaseOOO, SspOOO);
    Set("core.output_bytes", Bytes);
  }

private:
  /// Geomean over the suite of base cycles / SSP cycles on one model.
  double speedup(SimKind Base, SimKind Ssp) const {
    std::vector<double> Ratios;
    for (const std::optional<Outcome> &O : Reference)
      if (O && O->Stats[Ssp].Cycles)
        Ratios.push_back(static_cast<double>(O->Stats[Base].Cycles) /
                         static_cast<double>(O->Stats[Ssp].Cycles));
    return Ratios.empty() ? 0.0 : geomean(Ratios);
  }

  OpResult runProgram(const PipelineProgram &PP, SpanRecorder *Spans,
                      Outcome &Out) const {
    const workloads::Workload &W = PP.W;
    auto Start = std::chrono::steady_clock::now();
    ir::Program Orig;
    {
      SpanScope S(Spans, "workloads.build");
      Orig = W.Build();
    }
    profile::ProfileData PD;
    {
      SpanScope S(Spans, "profile.run");
      PD = core::profileProgram(Orig, W.BuildMemory);
    }
    core::ToolOptions TO;
    TO.EnableStreams = PP.Streams;
    TO.FatalOnVerifyError = false;
    TO.Metrics = Metrics;
    core::AdaptationReport Rep;
    ir::Program Enhanced;
    {
      SpanScope S(Spans, "core.adapt");
      core::PostPassTool Tool(Orig, PD, TO);
      Enhanced = Tool.adapt(&Rep);
    }
    ir::LinkedProgram Linked[2];
    for (unsigned I = 0; I < 2; ++I) {
      SpanScope S(Spans, "ir.link");
      Linked[I] = ir::LinkedProgram::link(I ? Enhanced : Orig);
    }
    bool ChecksumOk[NumSimKinds] = {};
    for (unsigned K = 0; K < NumSimKinds; ++K) {
      mem::SimMemory Mem;
      uint64_t Expected = 0;
      {
        SpanScope S(Spans, "workloads.memimage");
        Expected = W.BuildMemory(Mem);
      }
      sim::MachineConfig Cfg = K == BaseOOO || K == SspOOO
                                   ? sim::MachineConfig::outOfOrder()
                                   : sim::MachineConfig::inOrder();
      {
        SpanScope S(Spans, SimSpan[K]);
        sim::Simulator Sim(Cfg, Linked[K == SspIO || K == SspOOO], Mem);
        Out.Stats[K] = Sim.run();
      }
      bool Mapped = false;
      ChecksumOk[K] =
          Mem.readMaybe(workloads::ResultAddr, Mapped) == Expected && Mapped;
    }
    OpResult R;
    R.Ms = msSince(Start);

    Out.Slices = Rep.numSlices();
    Out.OutputBytes = Enhanced.str().size();
    for (unsigned K = 0; K < NumSimKinds; ++K)
      if (!ChecksumOk[K]) {
        R.Error = W.Name + ": " + SimLabel[K] + " run stored a wrong checksum";
        return R;
      }
    if (Rep.VerifyErrors)
      R.Error = W.Name + ": " + std::to_string(Rep.VerifyErrors) +
                " verify error(s) in the adapted binary";
    return R;
  }

  uint64_t Seed;
  std::vector<PipelineProgram> Programs;
  std::vector<std::optional<Outcome>> Reference;
  obs::Registry *Metrics = nullptr;
  uint64_t TotalCycles[NumSimKinds] = {};
  uint64_t TotalInsts = 0;
};

} // namespace

std::unique_ptr<Workload>
perfbench::makePipeline(uint64_t Seed, std::vector<PipelineProgram> Programs,
                        SpanRecorder *Spans) {
  auto P = std::make_unique<Pipeline>(Seed, std::move(Programs));
  P->warmUp(Spans);
  return P;
}

std::unique_ptr<Workload> perfbench::makePipeline(uint64_t Seed,
                                                  SpanRecorder *Spans) {
  std::vector<PipelineProgram> Programs;
  for (workloads::Workload &W : workloads::paperSuite())
    Programs.push_back({std::move(W), false});
  for (workloads::Workload &W : workloads::streamSuite())
    Programs.push_back({std::move(W), true});
  return makePipeline(Seed, std::move(Programs), Spans);
}
