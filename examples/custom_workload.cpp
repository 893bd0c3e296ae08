//===- examples/custom_workload.cpp - adapt your own pointer-chasing code --===//
//
// Shows the full authoring path a downstream user would take: write a new
// pointer-intensive kernel with IRBuilder (here, a two-level indirection
// "index -> descriptor -> payload" scan typical of database row stores),
// give it a data image, and let the post-pass tool attach prefetch
// threads. Also contrasts the chaining and basic precomputation models on
// the same kernel.
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "sim/Run.h"
#include "support/RNG.h"
#include "verify/Diagnostic.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace ssp;
using namespace ssp::ir;

namespace {

constexpr uint64_t IndexBase = 0x100000;   // Sequential index array.
constexpr uint64_t DescBase = 0x4000000;   // Scattered descriptors.
constexpr uint64_t PayloadBase = 0x9000000; // Scattered payloads.
constexpr unsigned NumRows = 3000;
constexpr unsigned NumDescs = 1 << 16;
constexpr uint64_t ResultAddr = workloads::ResultAddr;

/// row scan:  for i in rows: d = index[i]; p = d->payload; sum += p->value
workloads::Workload makeRowScan() {
  workloads::Workload W;
  W.Name = "row-scan";
  W.Build = []() {
    Program P;
    IRBuilder B(P);
    B.createFunction("main");
    uint32_t Entry = B.createBlock("entry");
    uint32_t Loop = B.createBlock("scan");
    uint32_t Exit = B.createBlock("exit");
    const Reg Idx = ireg(1), End = ireg(2), Desc = ireg(3), Pay = ireg(4),
              Val = ireg(5), Sum = ireg(6), Res = ireg(7);
    const Reg Cont = preg(1);
    B.setInsertPoint(Entry);
    B.movI(Idx, IndexBase);
    B.movI(End, IndexBase + 8ull * NumRows);
    B.movI(Sum, 0);
    B.jmp(Loop);
    B.setInsertPoint(Loop);
    B.load(Desc, Idx, 0);  // descriptor pointer (sequential index array).
    B.load(Pay, Desc, 8);  // d->payload (scattered).
    B.load(Val, Pay, 0);   // p->value   (scattered; delinquent).
    B.add(Sum, Sum, Val);
    B.addI(Idx, Idx, 8);
    B.cmp(CondCode::LT, Cont, Idx, End);
    B.br(Cont, Loop);
    B.setInsertPoint(Exit);
    B.movI(Res, ResultAddr);
    B.store(Res, 0, Sum);
    B.halt();
    P.setEntry(0);
    return P;
  };
  W.BuildMemory = [](mem::SimMemory &Mem) {
    RNG Rng(0xD00D);
    uint64_t Sum = 0;
    for (unsigned I = 0; I < NumDescs; ++I) {
      Mem.write(PayloadBase + 64ull * I, I * 5 + 3);
      Mem.write(DescBase + 64ull * I + 8, PayloadBase + 64ull * I);
    }
    for (unsigned I = 0; I < NumRows; ++I) {
      uint64_t D = DescBase + 64ull * Rng.nextBelow(NumDescs);
      Mem.write(IndexBase + 8ull * I, D);
      Sum += Mem.read(Mem.read(D + 8));
    }
    Mem.write(ResultAddr, 0);
    return Sum;
  };
  return W;
}

uint64_t runOn(const Program &P, const workloads::Workload &W) {
  return sim::runProgram(LinkedProgram::link(P), W.BuildMemory,
                         sim::MachineConfig::inOrder())
      .Stats.Cycles;
}

} // namespace

int main() {
  workloads::Workload W = makeRowScan();
  Program Original = W.Build();
  verify::DiagnosticEngine DE;
  verifyStructural(Original, DE);
  if (DE.hasErrors()) {
    std::fprintf(stderr, "IR verification failed: %s\n",
                 DE.diagnostics().front().Message.c_str());
    return 1;
  }

  profile::ProfileData Profile =
      core::profileProgram(Original, W.BuildMemory);

  uint64_t Base = runOn(Original, W);
  std::printf("row-scan baseline: %llu cycles\n",
              static_cast<unsigned long long>(Base));

  // Chaining SP (the tool's default choice for a hot do-across loop).
  {
    core::PostPassTool Tool(Original, Profile);
    core::AdaptationReport Rep;
    Program Enhanced = Tool.adapt(&Rep);
    uint64_t Cycles = runOn(Enhanced, W);
    std::printf("chaining SP      : %llu cycles (%.2fx), model=%s\n",
                static_cast<unsigned long long>(Cycles),
                static_cast<double>(Base) / Cycles,
                Rep.Slices.empty()
                    ? "-"
                    : sched::modelName(Rep.Slices[0].Model));
  }

  // Basic SP only (ablated): one speculative thread per iteration,
  // spawned by the main thread.
  {
    core::ToolOptions Opts;
    Opts.EnableChaining = false;
    core::PostPassTool Tool(Original, Profile, Opts);
    Program Enhanced = Tool.adapt();
    uint64_t Cycles = runOn(Enhanced, W);
    std::printf("basic SP only    : %llu cycles (%.2fx)\n",
                static_cast<unsigned long long>(Cycles),
                static_cast<double>(Base) / Cycles);
  }
  return 0;
}
