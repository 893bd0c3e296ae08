//===- sim/Executor.cpp - Functional instruction execution ----------------===//
//
// The out-of-line entry points over the shared execution core in
// sim/ExecCore.h: one timing step for callers outside the fetch loop, and
// the batched fast-forward and warming levels of sampled simulation.
//
//===----------------------------------------------------------------------===//

#include "sim/Executor.h"

#include "sim/ExecCore.h"

using namespace ssp;
using namespace ssp::sim;
using namespace ssp::ir;

using detail::ExecMode;
using detail::execCore;

void ssp::sim::executeStep(ThreadContext &Ctx, const LinkedProgram &LP,
                           mem::SimMemory &Mem, bool Speculative,
                           bool FreeContextAvailable, ExecOutcome &Out) {
  detail::executeStepInline(Ctx, LP, Mem, Speculative, FreeContextAvailable,
                            Out);
}

FunctionalResult ssp::sim::fastForward(ThreadContext &Ctx,
                                       const LinkedProgram &LP,
                                       mem::SimMemory &Mem,
                                       uint64_t MaxInsts) {
  FunctionalResult R;
  if (MaxInsts == 0)
    return R;
  R.Insts = execCore<ExecMode::FastForward>(
      Ctx, LP, Mem, /*Speculative=*/false, /*FreeContextAvailable=*/false,
      nullptr, nullptr, nullptr, nullptr, MaxInsts, &R.Halted);
  return R;
}

FunctionalResult ssp::sim::warmForward(ThreadContext &Ctx,
                                       const LinkedProgram &LP,
                                       mem::SimMemory &Mem,
                                       cache::CacheHierarchy &Cache,
                                       branch::BranchPredictor &Bpred,
                                       uint64_t &Now, uint64_t MaxInsts) {
  FunctionalResult R;
  if (MaxInsts == 0)
    return R;
  R.Insts = execCore<ExecMode::Warm>(
      Ctx, LP, Mem, /*Speculative=*/false, /*FreeContextAvailable=*/false,
      nullptr, &Cache, &Bpred, &Now, MaxInsts, &R.Halted);
  return R;
}
