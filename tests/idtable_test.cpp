//===- tests/idtable_test.cpp - Flat id tables against the node maps ------===//
//
// Differential tests for the two whole-program passes that index every
// instruction by its static id: the structural verifier's duplicate-id
// check (a flag table per function) and delinquent-load selection
// (profile::StaticIdIndex plus a partial sort). Each is compared with a
// local copy of the std::set / std::unordered_map + full-sort code it
// replaced, over the differential corpus (original and adapted) and over
// copies with duplicate ids injected.
//
//===----------------------------------------------------------------------===//

#include "DifferentialCorpus.h"

#include "ir/Verifier.h"
#include "verify/Diagnostic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

using namespace ssp;
using namespace ssp::ir;
using analysis::InstRef;

namespace {

/// The set-based duplicate-id check, as ir::verifyStructural ran it.
void setBasedDupIds(const Program &P, verify::DiagnosticEngine &DE) {
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    const Function &F = P.func(FI);
    if (F.numBlocks() == 0)
      continue;
    std::set<uint32_t> Seen;
    for (const BasicBlock &BB : F.blocks())
      for (uint32_t Idx = 0; Idx < BB.Insts.size(); ++Idx)
        if (!Seen.insert(BB.Insts[Idx].Id).second)
          DE.error("structural.dup-id", {F.getIndex(), BB.Index, Idx},
                   "in " + F.getName() + " bb" + std::to_string(BB.Index) +
                       ": duplicate static instruction id " +
                       std::to_string(BB.Insts[Idx].Id));
  }
}

/// The hash-indexed, fully sorted load selection.
std::vector<profile::DelinquentLoad>
hashIndexedSelect(const Program &P, const profile::ProfileData &PD,
                  double Coverage, unsigned MaxLoads) {
  std::unordered_map<StaticId, InstRef> Index;
  for (uint32_t FI = 0; FI < P.numFuncs(); ++FI) {
    const Function &F = P.func(FI);
    for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
      const BasicBlock &BB = F.block(BI);
      for (uint32_t II = 0; II < BB.Insts.size(); ++II)
        Index[makeStaticId(FI, BB.Insts[II].Id)] = {FI, BI, II};
    }
  }
  std::vector<profile::DelinquentLoad> All;
  uint64_t TotalMissCycles = 0;
  for (const auto &[Sid, Stats] : PD.Loads) {
    if (Stats.MissCycles == 0)
      continue;
    auto It = Index.find(Sid);
    if (It == Index.end())
      continue;
    profile::DelinquentLoad D;
    D.Ref = It->second;
    D.Sid = Sid;
    D.MissCycles = Stats.MissCycles;
    D.L1Misses = Stats.l1Misses();
    D.AvgLatency = Stats.Accesses == 0
                       ? 0.0
                       : static_cast<double>(Stats.MissCycles) /
                             static_cast<double>(Stats.Accesses);
    All.push_back(D);
    TotalMissCycles += Stats.MissCycles;
  }
  std::sort(All.begin(), All.end(),
            [](const profile::DelinquentLoad &A,
               const profile::DelinquentLoad &B) {
              if (A.MissCycles != B.MissCycles)
                return A.MissCycles > B.MissCycles;
              return A.Ref < B.Ref;
            });
  std::vector<profile::DelinquentLoad> Selected;
  uint64_t Covered = 0;
  for (const profile::DelinquentLoad &D : All) {
    if (Selected.size() >= MaxLoads)
      break;
    if (TotalMissCycles > 0 &&
        static_cast<double>(Covered) >=
            Coverage * static_cast<double>(TotalMissCycles))
      break;
    Selected.push_back(D);
    Covered += D.MissCycles;
  }
  return Selected;
}

enum class Dup { WithinBlock, AcrossBlocks, ThreeWay };

/// A copy of \p P with duplicate ids injected into every function the
/// pattern fits.
Program injectDuplicates(const Program &P, Dup Kind) {
  Program Out = P.clone();
  for (uint32_t FI = 0; FI < Out.numFuncs(); ++FI) {
    Function &F = Out.func(FI);
    switch (Kind) {
    case Dup::WithinBlock:
      for (BasicBlock &BB : F.blocks())
        if (BB.Insts.size() >= 2) {
          BB.Insts[1].Id = BB.Insts[0].Id;
          break;
        }
      break;
    case Dup::AcrossBlocks:
      if (F.numBlocks() >= 2 && !F.blocks().back().Insts.empty() &&
          !F.block(0).Insts.empty())
        F.blocks().back().Insts.back().Id = F.block(0).Insts.front().Id;
      break;
    case Dup::ThreeWay: {
      // The first, middle and last instruction in layout order.
      std::vector<Instruction *> Insts;
      for (BasicBlock &BB : F.blocks())
        for (Instruction &I : BB.Insts)
          Insts.push_back(&I);
      if (Insts.size() >= 3) {
        Insts[Insts.size() / 2]->Id = Insts.front()->Id;
        Insts.back()->Id = Insts.front()->Id;
      }
      break;
    }
    }
  }
  return Out;
}

void expectSameDiagnostics(const std::vector<verify::Diagnostic> &Got,
                           const std::vector<verify::Diagnostic> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    SCOPED_TRACE("diagnostic " + std::to_string(I));
    EXPECT_EQ(Got[I].Sev, Want[I].Sev);
    EXPECT_EQ(Got[I].CheckId, Want[I].CheckId);
    EXPECT_EQ(Got[I].Kind, Want[I].Kind);
    EXPECT_EQ(Got[I].Loc, Want[I].Loc);
    EXPECT_EQ(Got[I].Message, Want[I].Message);
    EXPECT_EQ(Got[I].FixHint, Want[I].FixHint);
  }
}

void expectSameSelection(const std::vector<profile::DelinquentLoad> &Got,
                         const std::vector<profile::DelinquentLoad> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    SCOPED_TRACE("load " + std::to_string(I));
    EXPECT_EQ(Got[I].Ref, Want[I].Ref);
    EXPECT_EQ(Got[I].Sid, Want[I].Sid);
    EXPECT_EQ(Got[I].MissCycles, Want[I].MissCycles);
    EXPECT_EQ(Got[I].L1Misses, Want[I].L1Misses);
    EXPECT_EQ(Got[I].AvgLatency, Want[I].AvgLatency);
  }
}

} // namespace

TEST(IdTableDifferential, DupIdDiagnosticsMatchSetCheck) {
  size_t Programs = 0, DupDiags = 0;
  for (const tests::CorpusProgram &C : tests::differentialCorpus()) {
    const std::pair<const char *, Program> Variants[] = {
        {"as built", C.P.clone()},
        {"dup within a block", injectDuplicates(C.P, Dup::WithinBlock)},
        {"dup across blocks", injectDuplicates(C.P, Dup::AcrossBlocks)},
        {"three-way dup", injectDuplicates(C.P, Dup::ThreeWay)},
    };
    for (const auto &[Name, P] : Variants) {
      SCOPED_TRACE(C.Name + ", " + Name);
      verify::DiagnosticEngine All, Want;
      verifyStructural(P, All);
      setBasedDupIds(P, Want);
      std::vector<verify::Diagnostic> Got;
      for (const verify::Diagnostic &D : All.diagnostics())
        if (D.CheckId == "structural.dup-id")
          Got.push_back(D);
      expectSameDiagnostics(Got, Want.diagnostics());
      ++Programs;
      DupDiags += Got.size();
    }
  }
  EXPECT_GT(Programs, 100u);
  EXPECT_GT(DupDiags, 500u);
}

TEST(IdTableDifferential, SelectionMatchesFullSort) {
  size_t Selections = 0, TiedPairs = 0, Absent = 0, LoadDups = 0;
  for (const tests::CorpusProgram &C : tests::differentialCorpus()) {
    // Ties: collapse miss cycles onto three values.
    profile::ProfileData Tied = C.PD;
    for (auto &[Sid, St] : Tied.Loads)
      if (St.MissCycles)
        St.MissCycles = 100 * (1 + St.MissCycles % 3);
    // Sids no instruction carries, hotter than any real load: past each
    // function's ids, and in a function the program does not have.
    profile::ProfileData Missing = C.PD;
    for (uint32_t FI = 0; FI <= C.P.numFuncs(); ++FI) {
      uint32_t Past = FI < C.P.numFuncs() ? C.P.func(FI).numInstIds() + 3 : 0;
      cache::PcCacheStats &St = Missing.Loads[makeStaticId(FI, Past)];
      St.Accesses = 1;
      St.MissCycles = ~0ULL >> 8;
      ++Absent;
    }
    // Each function's last instruction takes the id of the function's
    // first profiled load, so that sid has two holders and resolves to
    // the later one.
    Program LoadDup = C.P.clone();
    for (uint32_t FI = 0; FI < LoadDup.numFuncs(); ++FI) {
      Function &F = LoadDup.func(FI);
      const Instruction *Hot = nullptr;
      for (const BasicBlock &BB : F.blocks())
        for (const Instruction &I : BB.Insts) {
          auto It = C.PD.Loads.find(makeStaticId(FI, I.Id));
          if (!Hot && It != C.PD.Loads.end() && It->second.MissCycles)
            Hot = &I;
        }
      if (Hot && Hot != &F.blocks().back().Insts.back()) {
        F.blocks().back().Insts.back().Id = Hot->Id;
        ++LoadDups;
      }
    }
    const std::tuple<const char *, const Program *,
                     const profile::ProfileData *>
        Variants[] = {{"profiled", &C.P, &C.PD},
                      {"tied miss cycles", &C.P, &Tied},
                      {"absent sids", &C.P, &Missing},
                      {"load ids duplicated", &LoadDup, &C.PD}};
    for (const auto &[Name, P, PD] : Variants)
      for (double Coverage : {0.5, 0.9, 1.0})
        for (unsigned MaxLoads : {1u, 3u, 10u, 1000u}) {
          SCOPED_TRACE(C.Name + ", " + Name + ", coverage " +
                       std::to_string(Coverage) + ", max " +
                       std::to_string(MaxLoads));
          std::vector<profile::DelinquentLoad> Got =
              profile::selectDelinquentLoads(*P, *PD, Coverage, MaxLoads);
          expectSameSelection(
              Got, hashIndexedSelect(*P, *PD, Coverage, MaxLoads));
          for (size_t I = 1; I < Got.size(); ++I)
            TiedPairs += Got[I - 1].MissCycles == Got[I].MissCycles;
          ++Selections;
        }
  }
  EXPECT_GT(Selections, 1000u);
  EXPECT_GT(TiedPairs, 100u);
  EXPECT_GT(Absent, 50u);
  EXPECT_GT(LoadDups, 20u);
}
