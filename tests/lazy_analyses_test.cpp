//===- tests/lazy_analyses_test.cpp - Lazy per-function analyses ----------===//
//
// FunctionDeps builds reaching definitions and control dependences on the
// first query for a function, and Slicer::summaryOf builds only the
// requested function's summary, each once under a std::call_once. These
// tests pin the lazy analyses against a copy of the eager code they
// replaced (every function's reaching defs and control dependences at
// construction, every function's summary in one pass), queried in reverse
// function order and concurrently from four threads. They also pin the
// adapted binary and the report at jobs 1, 4 and 8 through a cold and a
// warm AnalysisCache.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "core/AnalysisCache.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"

#include "DifferentialCorpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <sstream>
#include <thread>

using namespace ssp;
using namespace ssp::analysis;
using namespace ssp::core;
using namespace ssp::ir;
using namespace ssp::slicer;

namespace {

bool isHardwired(Reg R) { return (R.isInt() || R.isPred()) && R.Num == 0; }

/// One function's flow analyses, built up front as FunctionDeps built them
/// before they became lazy.
struct EagerFunction {
  CFG G;
  ReachingDefs RD;
  std::vector<std::vector<uint32_t>> CtrlDeps;

  EagerFunction(const Program &P, uint32_t Func)
      : G(CFG::build(P.func(Func))), RD(ReachingDefs::build(P, Func, G)),
        CtrlDeps(controlDependence(G)) {}

  std::vector<InstRef> controlSources(const Program &P,
                                      const InstRef &I) const {
    std::vector<InstRef> Sources;
    for (uint32_t BranchBlock : CtrlDeps[I.Block]) {
      const BasicBlock &BB = P.func(I.Func).block(BranchBlock);
      Sources.push_back(
          {I.Func, BranchBlock, static_cast<uint32_t>(BB.Insts.size() - 1)});
    }
    return Sources;
  }
};

/// Every function's callee summary in one pass over the eager analyses:
/// Slicer::computeSummaries as it was before summaries became lazy.
std::vector<FuncSummary> eagerSummaries(const Program &P,
                                        const InstIndex &Index,
                                        const std::vector<EagerFunction> &Fns,
                                        const profile::ProfileData &PD,
                                        bool Speculative) {
  auto Cold = [&](uint32_t Func, uint32_t Block) {
    return Speculative && PD.blockCount(Func, Block) == 0;
  };
  std::vector<FuncSummary> Tab(P.numFuncs());
  support::BitVector Members(Index.numInsts());
  support::BitVector Entry(Reg::NumDenseIndices);
  std::vector<uint32_t> Touched;
  std::vector<uint32_t> Scratch;
  std::deque<InstRef> Work;
  auto Add = [&](const InstRef &I) {
    uint32_t Id = Index.id(I);
    if (Members.testAndSet(Id)) {
      Touched.push_back(Id);
      Work.push_back(I);
    }
  };
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    const EagerFunction &EF = Fns[FI];
    FuncSummary &Sum = Tab[FI];
    Sum.DefinedRegs.resize(Reg::NumDenseIndices);
    Sum.Defined.resize(Reg::NumDenseIndices);
    for (unsigned Dense = 0; Dense < Reg::NumDenseIndices; ++Dense) {
      for (uint32_t DefId : EF.RD.defIdsOf(Dense)) {
        const InstRef &Def = EF.RD.allDefs()[DefId];
        if (Cold(FI, Def.Block))
          continue;
        Work.clear();
        Add(Def);
        while (!Work.empty()) {
          InstRef I = Work.front();
          Work.pop_front();
          if (Touched.size() > 200) // The summary size cap.
            break;
          I.get(P).forEachUse([&](Reg U) {
            if (isHardwired(U))
              return;
            bool LiveIn = EF.RD.forEachReachingDef(
                I.Block, I.Inst, U, Scratch, [&](const InstRef &Prod) {
                  if (!Cold(FI, Prod.Block))
                    Add(Prod);
                });
            if (LiveIn)
              Entry.set(U.denseIndex());
          });
          for (const InstRef &Ctrl : EF.controlSources(P, I))
            if (!Cold(FI, Ctrl.Block))
              Add(Ctrl);
        }
      }
      if (Touched.empty())
        continue;
      Sum.Defined.set(Dense);
      FuncSummary::RegInfo &Info = Sum.DefinedRegs[Dense];
      std::sort(Touched.begin(), Touched.end());
      for (uint32_t Id : Touched) {
        Info.Insts.push_back(Index.ref(Id));
        Members.reset(Id);
      }
      Touched.clear();
      Entry.forEachSetBit([&](size_t E) {
        Info.EntryDeps.push_back(regFromDenseIndex(static_cast<unsigned>(E)));
      });
      Entry.clearAll();
    }
  }
  return Tab;
}

/// The control sources of every instruction of \p Func, in layout order.
template <typename ControlFn>
std::vector<std::vector<InstRef>>
controlTable(const Program &P, uint32_t Func, ControlFn &&Control) {
  std::vector<std::vector<InstRef>> Table;
  const Function &F = P.func(Func);
  for (uint32_t BI = 0; BI < F.numBlocks(); ++BI)
    for (uint32_t II = 0; II < F.block(BI).Insts.size(); ++II)
      Table.push_back(Control(InstRef{Func, BI, II}));
  return Table;
}

/// One function's reaching defs (per use: the reaching def sites and the
/// live-in flag), control sources (\p Ctrl, from controlTable) and
/// summary, as text.
std::string renderFunction(const Program &P, uint32_t Func,
                           const ReachingDefs &RD,
                           const std::vector<std::vector<InstRef>> &Ctrl,
                           const FuncSummary &Sum) {
  std::ostringstream OS;
  std::vector<uint32_t> Scratch;
  OS << "defs:";
  for (const InstRef &D : RD.allDefs())
    OS << " " << D.str();
  OS << "\n";
  const Function &F = P.func(Func);
  size_t Pos = 0;
  for (uint32_t BI = 0; BI < F.numBlocks(); ++BI)
    for (uint32_t II = 0; II < F.block(BI).Insts.size(); ++II) {
      InstRef I{Func, BI, II};
      OS << I.str() << ":";
      I.get(P).forEachUse([&](Reg R) {
        if (isHardwired(R))
          return;
        OS << " " << R.str() << "<-";
        bool LiveIn = RD.forEachReachingDef(
            BI, II, R, Scratch,
            [&](const InstRef &Def) { OS << Def.str() << ","; });
        OS << (LiveIn ? "entry" : "");
      });
      OS << " ctrl";
      for (const InstRef &C : Ctrl[Pos++])
        OS << " " << C.str();
      OS << "\n";
    }
  Sum.Defined.forEachSetBit([&](size_t Dense) {
    const FuncSummary::RegInfo &Info = Sum.DefinedRegs[Dense];
    OS << "sum " << regFromDenseIndex(static_cast<unsigned>(Dense)).str()
       << ":";
    for (const InstRef &M : Info.Insts)
      OS << " " << M.str();
    OS << " entry";
    for (Reg E : Info.EntryDeps)
      OS << " " << E.str();
    OS << "\n";
  });
  return OS.str();
}

/// The eager rendering of every function of \p C.
std::vector<std::string> eagerRendering(const tests::CorpusProgram &C,
                                        bool Speculative) {
  std::vector<EagerFunction> Fns;
  Fns.reserve(C.P.numFuncs());
  for (uint32_t F = 0; F < C.P.numFuncs(); ++F)
    Fns.emplace_back(C.P, F);
  InstIndex Index(C.P);
  std::vector<FuncSummary> Sums =
      eagerSummaries(C.P, Index, Fns, C.PD, Speculative);
  std::vector<std::string> Out;
  for (uint32_t F = 0; F < C.P.numFuncs(); ++F)
    Out.push_back(renderFunction(
        C.P, F, Fns[F].RD, controlTable(C.P, F, [&](const InstRef &I) {
          return Fns[F].controlSources(C.P, I);
        }),
        Sums[F]));
  return Out;
}

/// What one use of function F's lazy analyses returned. Rendering waits
/// until the threads that raced to build them are joined, so nothing but
/// the analyses' own first-use synchronisation orders the threads.
struct LazyUse {
  const ReachingDefs *RD = nullptr;
  std::vector<std::vector<InstRef>> Ctrl;
  const FuncSummary *Sum = nullptr;
};

LazyUse useLazy(const ProgramDeps &Deps, const Slicer &S, uint32_t F) {
  const FunctionDeps &FD = Deps.forFunction(F);
  LazyUse U;
  U.RD = &FD.reachingDefs();
  U.Ctrl = controlTable(Deps.program(), F, [&](const InstRef &I) {
    return FD.controlSources(I);
  });
  U.Sum = &S.summaryOf(F);
  return U;
}

std::string render(const Program &P, uint32_t F, const LazyUse &U) {
  return renderFunction(P, F, *U.RD, U.Ctrl, *U.Sum);
}

struct LazySubject {
  ProgramDeps Deps;
  RegionGraph RG;
  CallGraph CG;
  Slicer S;

  LazySubject(const tests::CorpusProgram &C, bool Speculative)
      : Deps(C.P), RG(RegionGraph::build(Deps)),
        CG(CallGraph::build(C.P, C.PD.IndirectTargets, C.PD.CallSiteCounts)),
        S(Deps, RG, CG, C.PD, sliceOpts(Speculative)) {}

  static SliceOptions sliceOpts(bool Speculative) {
    SliceOptions Opts;
    Opts.Speculative = Speculative;
    return Opts;
  }
};

const std::vector<tests::CorpusProgram> &corpus() {
  static const std::vector<tests::CorpusProgram> C =
      tests::differentialCorpus();
  return C;
}

} // namespace

TEST(LazyAnalyses, MatchEagerInReverseFunctionOrder) {
  size_t Funcs = 0;
  for (const tests::CorpusProgram &C : corpus()) {
    SCOPED_TRACE(C.Name);
    for (bool Speculative : {true, false}) {
      SCOPED_TRACE(Speculative ? "speculative" : "static");
      std::vector<std::string> Want = eagerRendering(C, Speculative);
      LazySubject L(C, Speculative);
      for (uint32_t F = C.P.numFuncs(); F-- > 0;) {
        ASSERT_EQ(render(C.P, F, useLazy(L.Deps, L.S, F)), Want[F])
            << C.P.func(F).getName();
        ++Funcs;
      }
    }
  }
  EXPECT_GT(Funcs, 200u);
}

TEST(LazyAnalyses, MatchEagerUnderConcurrentFirstUse) {
  // Four threads, each with its own slicer copy, race to build every
  // function's analyses and summary through one ProgramDeps and the
  // copies' shared summary table: two walk the functions forwards and two
  // backwards, so each function is first used by two threads at once.
  constexpr unsigned Threads = 4;
  for (const tests::CorpusProgram &C : corpus()) {
    SCOPED_TRACE(C.Name);
    std::vector<std::string> Want = eagerRendering(C, /*Speculative=*/true);
    LazySubject L(C, /*Speculative=*/true);
    const uint32_t N = C.P.numFuncs();
    std::vector<std::vector<LazyUse>> Got(Threads, std::vector<LazyUse>(N));
    std::atomic<unsigned> Started{0};
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T, S = L.S]() {
        Started.fetch_add(1);
        while (Started.load() < Threads)
          std::this_thread::yield();
        for (uint32_t K = 0; K < N; ++K) {
          uint32_t F = T % 2 ? N - 1 - K : K;
          Got[T][F] = useLazy(L.Deps, S, F);
        }
      });
    for (std::thread &W : Workers)
      W.join();
    for (unsigned T = 0; T < Threads; ++T)
      for (uint32_t F = 0; F < N; ++F)
        ASSERT_EQ(render(C.P, F, Got[T][F]), Want[F])
            << "thread " << T << ", " << C.P.func(F).getName();
  }
}

TEST(LazyAnalyses, AdaptationIdenticalAcrossJobsAndCacheWarmth) {
  // Default options and spec-deps + streams, on every original corpus
  // program: a fresh cache at jobs 1 is the reference for jobs 1, 4 and 8
  // through one shared AnalysisCache, first cold, then warm.
  size_t Programs = 0;
  for (const tests::CorpusProgram &C : corpus()) {
    if (C.Name.find("(adapted)") != std::string::npos)
      continue;
    ++Programs;
    SCOPED_TRACE(C.Name);
    for (bool Speculate : {false, true}) {
      SCOPED_TRACE(Speculate ? "spec-deps + streams" : "default");
      auto OptionsWithJobs = [&](unsigned Jobs) {
        ToolOptions Opts;
        Opts.Jobs = Jobs;
        Opts.EnableSpecDeps = Speculate;
        Opts.EnableStreams = Speculate;
        Opts.FatalOnVerifyError = false;
        return Opts;
      };
      auto Adapt = [&](unsigned Jobs, const AnalysisCache *AC) {
        PostPassTool Tool(C.P, C.PD, OptionsWithJobs(Jobs));
        AdaptationReport Rep;
        std::string Text = Tool.adaptWith(AC, &Rep).str();
        return renderReportText(C.PD.BaselineCycles, Rep) + Text;
      };
      std::string Fresh = Adapt(1, nullptr);
      for (unsigned Jobs : {1u, 4u, 8u}) {
        ToolOptions Opts = OptionsWithJobs(Jobs);
        AnalysisCache AC(C.P, C.PD, Opts.Slicing,
                         PostPassTool::scheduleOptionsOf(Opts),
                         PostPassTool::specDepOptionsOf(Opts));
        for (const char *Cache : {"cold", "warm"})
          EXPECT_EQ(Adapt(Jobs, &AC), Fresh)
              << Cache << " cache, jobs=" << Jobs;
      }
    }
  }
  EXPECT_GE(Programs, 15u);
}
