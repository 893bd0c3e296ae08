//===- tests/profileio_test.cpp - .sspprof text format round trips --------===//
//
// The profile half of the serving serialization: writeProfileText and
// parseProfileText must round-trip every real profile byte-identically
// (canonical order in, canonical order out) and reconstruct every field
// the adaptation pipeline consumes. The negative fixtures pin the strict
// located-error contract malformed daemon requests rely on.
//
//===----------------------------------------------------------------------===//

#include "ProfiledFixture.h"
#include "ir/Parser.h"
#include "profile/ProfileIO.h"
#include "sim/Run.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::profile;
using namespace ssp::workloads;

namespace {

void expectDepEdgesEqual(const std::vector<analysis::DepEdgeCount> &A,
                         const std::vector<analysis::DepEdgeCount> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].From, B[I].From) << "edge " << I;
    EXPECT_EQ(A[I].To, B[I].To) << "edge " << I;
    EXPECT_EQ(A[I].Count, B[I].Count) << "edge " << I;
  }
}

void expectProfilesEqual(const ProfileData &A, const ProfileData &B) {
  EXPECT_EQ(A.BaselineCycles, B.BaselineCycles);
  ASSERT_EQ(A.BlockCounts.size(), B.BlockCounts.size());
  for (size_t F = 0; F < A.BlockCounts.size(); ++F)
    EXPECT_EQ(A.BlockCounts[F], B.BlockCounts[F]) << "fn" << F;
  ASSERT_EQ(A.EdgeCounts.size(), B.EdgeCounts.size());
  for (size_t F = 0; F < A.EdgeCounts.size(); ++F)
    EXPECT_EQ(A.EdgeCounts[F], B.EdgeCounts[F]) << "fn" << F;
  ASSERT_EQ(A.CallSiteCounts.size(), B.CallSiteCounts.size());
  for (size_t I = 0; I < A.CallSiteCounts.size(); ++I) {
    EXPECT_EQ(A.CallSiteCounts[I].Site, B.CallSiteCounts[I].Site);
    EXPECT_EQ(A.CallSiteCounts[I].Count, B.CallSiteCounts[I].Count);
  }
  ASSERT_EQ(A.IndirectTargets.size(), B.IndirectTargets.size());
  for (size_t I = 0; I < A.IndirectTargets.size(); ++I) {
    EXPECT_EQ(A.IndirectTargets[I].Site, B.IndirectTargets[I].Site);
    EXPECT_EQ(A.IndirectTargets[I].Callee, B.IndirectTargets[I].Callee);
    EXPECT_EQ(A.IndirectTargets[I].Count, B.IndirectTargets[I].Count);
  }
  // Loads: identical keys in identical insertion order (the format
  // defines file order as the map's order), identical counters.
  ASSERT_EQ(A.Loads.size(), B.Loads.size());
  auto BIt = B.Loads.begin();
  for (const auto &[Sid, SA] : A.Loads) {
    const auto &[SidB, SB] = *BIt++;
    EXPECT_EQ(Sid, SidB);
    EXPECT_EQ(SA.Accesses, SB.Accesses);
    EXPECT_EQ(SA.MissCycles, SB.MissCycles);
    for (unsigned L = 0; L < 4; ++L) {
      EXPECT_EQ(SA.Hits[L], SB.Hits[L]);
      EXPECT_EQ(SA.Partials[L], SB.Partials[L]);
    }
  }
  // Dependence evidence: the fields analysis::SpecDeps classifies from.
  EXPECT_EQ(A.HasDepEvidence, B.HasDepEvidence);
  ASSERT_EQ(A.InstCounts.size(), B.InstCounts.size());
  for (size_t F = 0; F < A.InstCounts.size(); ++F)
    EXPECT_EQ(A.InstCounts[F], B.InstCounts[F]) << "fn" << F;
  expectDepEdgesEqual(A.MemDepCounts, B.MemDepCounts);
  expectDepEdgesEqual(A.RegDepCounts, B.RegDepCounts);
}

TEST(ProfileIO, RoundTripsPaperSuiteByteIdentically) {
  for (const Workload &W : paperSuite()) {
    SCOPED_TRACE(W.Name);
    const ProfileData &PD = profiledWorkload(W).PD;
    std::string Text = writeProfileText(PD);
    ProfileData Parsed;
    std::string Err;
    ASSERT_TRUE(parseProfileText(Text, Parsed, Err)) << Err;
    expectProfilesEqual(PD, Parsed);
    // write(parse(write(PD))) == write(PD): the canonical order is a
    // fixpoint, so cache keys built from the text are stable.
    EXPECT_EQ(writeProfileText(Parsed), Text);
  }
}

TEST(ProfileIO, RoundTripsStressAndIndirectCalls) {
  for (const Workload &W : {makeStress(8, 4, 2), makeHealth(), makeVpr()}) {
    SCOPED_TRACE(W.Name);
    const ProfileData &PD = profiledWorkload(W).PD;
    std::string Text = writeProfileText(PD);
    ProfileData Parsed;
    std::string Err;
    ASSERT_TRUE(parseProfileText(Text, Parsed, Err)) << Err;
    expectProfilesEqual(PD, Parsed);
  }
}

TEST(ProfileIO, CommentsAndBlankLinesAreIgnored) {
  ProfileData PD;
  std::string Err;
  EXPECT_TRUE(parseProfileText("# hello\n\nsspprof v1\n# mid\nfuncs 1\n"
                               "blockcounts 0 2: 5 6  # trailing\n"
                               "baseline 42\n",
                               PD, Err))
      << Err;
  EXPECT_EQ(PD.BaselineCycles, 42u);
  ASSERT_EQ(PD.BlockCounts.size(), 1u);
  EXPECT_EQ(PD.BlockCounts[0], (std::vector<uint64_t>{5, 6}));
}

struct BadCase {
  const char *Name;
  const char *Text;
  const char *ErrSubstring;
};

TEST(ProfileIO, RejectsMalformedInputWithLocatedErrors) {
  const BadCase Cases[] = {
      {"missing header", "funcs 1\n", "header"},
      {"wrong version", "sspprof v2\n", "header"},
      {"empty", "", "missing 'sspprof v1' header"},
      {"unknown record", "sspprof v1\nfuncs 1\nbogus 1 2\n",
       "unknown record 'bogus'"},
      {"record before funcs", "sspprof v1\nblockcounts 0 1: 3\n",
       "before 'funcs'"},
      {"func out of range", "sspprof v1\nfuncs 1\nedge 1 0 0 5\n",
       "out of range"},
      {"duplicate funcs", "sspprof v1\nfuncs 1\nfuncs 2\n",
       "duplicate 'funcs'"},
      {"duplicate baseline", "sspprof v1\nbaseline 1\nbaseline 2\n",
       "duplicate 'baseline'"},
      {"duplicate blockcounts",
       "sspprof v1\nfuncs 1\nblockcounts 0 1: 3\nblockcounts 0 1: 4\n",
       "duplicate 'blockcounts'"},
      {"count arity", "sspprof v1\nfuncs 1\nblockcounts 0 3: 1 2\n",
       "expected 3 counts"},
      // Counts in the text are claims; none of them sizes a table.
      {"huge block count",
       "sspprof v1\nfuncs 1\nblockcounts 0 1099511627776: 1 2 3\n",
       "line 3: expected 1099511627776 counts"},
      {"huge funcs claim", "sspprof v1\nfuncs 4294967295\nblockcounts 0 0:\n",
       "line 2: 'funcs' claims 4294967295 functions, more than 3 lines can "
       "name"},
      {"funcs claim no record backs",
       "sspprof v1\nfuncs 3\nblockcounts 0 1: 3\nedge 1 0 0 1\n",
       "line 2: 'funcs' claims 3 functions, but no record names fn2"},
      {"trailing junk", "sspprof v1\nfuncs 1\nbaseline 7 extra\n",
       "trailing junk"},
      {"negative number", "sspprof v1\nfuncs 1\nbaseline -4\n",
       "malformed 'baseline'"},
      {"overflow", "sspprof v1\nfuncs 1\nbaseline 99999999999999999999\n",
       "malformed 'baseline'"},
      {"duplicate edge", "sspprof v1\nfuncs 1\nedge 0 0 1 5\nedge 0 0 1 6\n",
       "duplicate 'edge'"},
      {"out-of-order calls",
       "sspprof v1\nfuncs 2\ncall 1 0 0 5\ncall 0 0 0 6\n", "out of order"},
      {"out-of-order icalls",
       "sspprof v1\nfuncs 2\nicall 0 0 0 1 5\nicall 0 0 0 1 6\n",
       "out of order"},
      {"duplicate load",
       "sspprof v1\nfuncs 1\nload 0 3 1 0 0 0 1 0 0 0 0 230\n"
       "load 0 3 1 0 0 0 1 0 0 0 0 230\n",
       "duplicate 'load'"},
      {"short load record", "sspprof v1\nfuncs 1\nload 0 3 1 0 0\n",
       "malformed 'load'"},
      // Dependence-evidence records (depevidence/instcount/memdep/regdep).
      {"instcount before depevidence",
       "sspprof v1\nfuncs 1\ninstcount 0 0 5\n", "before 'depevidence'"},
      {"memdep before depevidence",
       "sspprof v1\nfuncs 1\nmemdep 0 0 1 5\n", "before 'depevidence'"},
      {"regdep before depevidence",
       "sspprof v1\nfuncs 1\nregdep 0 0 1 5\n", "before 'depevidence'"},
      {"duplicate depevidence",
       "sspprof v1\nfuncs 1\ndepevidence 1\ndepevidence 1\n",
       "duplicate 'depevidence'"},
      {"depevidence version",
       "sspprof v1\nfuncs 1\ndepevidence 2\n", "unsupported 'depevidence'"},
      {"zero instcount",
       "sspprof v1\nfuncs 1\ndepevidence 1\ninstcount 0 0 0\n",
       "zero 'instcount'"},
      {"out-of-order instcounts",
       "sspprof v1\nfuncs 1\ndepevidence 1\ninstcount 0 2 5\n"
       "instcount 0 1 4\n",
       "out of order"},
      {"duplicate instcount",
       "sspprof v1\nfuncs 1\ndepevidence 1\ninstcount 0 1 5\n"
       "instcount 0 1 5\n",
       "out of order"},
      {"out-of-order memdeps",
       "sspprof v1\nfuncs 1\ndepevidence 1\nmemdep 0 2 3 5\n"
       "memdep 0 1 3 4\n",
       "out of order"},
      {"out-of-order regdeps",
       "sspprof v1\nfuncs 1\ndepevidence 1\nregdep 0 2 3 5\n"
       "regdep 0 1 3 4\n",
       "out of order"},
      {"instcount func out of range",
       "sspprof v1\nfuncs 1\ndepevidence 1\ninstcount 1 0 5\n",
       "out of range"},
      {"memdep func out of range",
       "sspprof v1\nfuncs 1\ndepevidence 1\nmemdep 1 0 1 5\n",
       "out of range"},
      {"truncated instcount",
       "sspprof v1\nfuncs 1\ndepevidence 1\ninstcount 0 1\n",
       "malformed 'instcount'"},
      {"truncated memdep",
       "sspprof v1\nfuncs 1\ndepevidence 1\nmemdep 0 1 2\n",
       "malformed 'memdep'"},
      {"truncated regdep",
       "sspprof v1\nfuncs 1\ndepevidence 1\nregdep 0 1 2\n",
       "malformed 'regdep'"},
      {"instcount count overflow",
       "sspprof v1\nfuncs 1\ndepevidence 1\n"
       "instcount 0 1 99999999999999999999\n",
       "malformed 'instcount'"},
      {"memdep id overflow",
       "sspprof v1\nfuncs 1\ndepevidence 1\nmemdep 0 99999999999 1 5\n",
       "out of 32-bit range"},
      {"depevidence trailing junk",
       "sspprof v1\nfuncs 1\ndepevidence 1 extra\n", "trailing junk"},
  };
  for (const BadCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    ProfileData PD;
    std::string Err;
    EXPECT_FALSE(parseProfileText(C.Text, PD, Err));
    EXPECT_NE(Err.find("line "), std::string::npos) << Err;
    EXPECT_NE(Err.find(C.ErrSubstring), std::string::npos) << Err;
  }
}

// The canonical record order the writer guarantees: the dependence
// evidence forms a trailer — marker first, then instcounts, memdeps,
// regdeps — after every legacy record kind. Cache keys are built from the
// text, so the order is part of the format contract, not a style choice.
TEST(ProfileIO, DependenceRecordsAreACanonicalTrailer) {
  size_t SuiteMemDeps = 0, SuiteRegDeps = 0;
  for (const Workload &W : paperSuite()) {
    SCOPED_TRACE(W.Name);
    const ProfileData &PD = profiledWorkload(W).PD;
    ASSERT_TRUE(PD.HasDepEvidence);
    EXPECT_FALSE(PD.InstCounts.empty());
    SuiteMemDeps += PD.MemDepCounts.size();
    SuiteRegDeps += PD.RegDepCounts.size();

    std::string Text = writeProfileText(PD);
    size_t Ev = Text.find("\ndepevidence 1\n");
    ASSERT_NE(Ev, std::string::npos);
    EXPECT_EQ(Text.find("depevidence", Ev + 2), std::string::npos);
    // No legacy record may follow the marker.
    for (const char *Kw :
         {"\nbaseline ", "\nfuncs ", "\nblockcounts ", "\nedge ", "\ncall ",
          "\nicall ", "\nload "})
      EXPECT_EQ(Text.find(Kw, Ev), std::string::npos) << Kw;
    // Evidence kinds appear in instcount -> memdep -> regdep order.
    size_t Ic = Text.find("\ninstcount ");
    size_t Md = Text.find("\nmemdep ");
    size_t Rd = Text.find("\nregdep ");
    ASSERT_NE(Ic, std::string::npos);
    EXPECT_LT(Ev, Ic);
    if (Md != std::string::npos) {
      EXPECT_LT(Ic, Md);
    }
    if (Rd != std::string::npos) {
      EXPECT_LT(Ic, Rd);
      if (Md != std::string::npos) {
        EXPECT_LT(Md, Rd);
      }
    }
  }
  // The suite exercises both dependence kinds end to end.
  EXPECT_GT(SuiteMemDeps, 0u);
  EXPECT_GT(SuiteRegDeps, 0u);
}

// The parser's totality contract under mutation: every mutant either
// fails with a located "line N:" error or parses into a profile whose
// canonical text is a fixpoint. Nothing may crash or silently accept a
// corrupt record.
void expectParseTotal(const std::string &Text) {
  ProfileData PD;
  std::string Err;
  if (!parseProfileText(Text, PD, Err)) {
    EXPECT_NE(Err.find("line "), std::string::npos) << Err;
    return;
  }
  std::string Canon = writeProfileText(PD);
  ProfileData PD2;
  ASSERT_TRUE(parseProfileText(Canon, PD2, Err)) << Err;
  EXPECT_EQ(writeProfileText(PD2), Canon);
}

TEST(ProfileIO, MutatedDependenceRecordsFailLocatedOrStayCanonical) {
  const ProfileData &PD = profiledWorkload(makeMcf()).PD;
  ASSERT_TRUE(PD.HasDepEvidence);
  std::string Text = writeProfileText(PD);

  std::vector<std::string> Lines;
  for (size_t Pos = 0; Pos < Text.size();) {
    size_t Nl = Text.find('\n', Pos);
    Lines.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }

  auto rebuild = [&](size_t Skip, const std::string &Replace) {
    std::string S;
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (I == Skip)
        S += Replace; // May be empty (deletion) or two lines (duplication).
      else
        S += Lines[I] + "\n";
    }
    return S;
  };

  unsigned Mutants = 0;
  for (size_t I = 0; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    if (L.rfind("depevidence", 0) != 0 && L.rfind("instcount", 0) != 0 &&
        L.rfind("memdep", 0) != 0 && L.rfind("regdep", 0) != 0)
      continue;
    SCOPED_TRACE("line " + std::to_string(I + 1) + ": " + L);
    // Truncated record: drop the last token.
    expectParseTotal(rebuild(I, L.substr(0, L.find_last_of(' ')) + "\n"));
    // Unknown record: corrupt the keyword.
    expectParseTotal(rebuild(I, "x" + L + "\n"));
    // Duplicated record: breaks the strict sort (or the marker's
    // uniqueness).
    expectParseTotal(rebuild(I, L + "\n" + L + "\n"));
    // Deleted record: legal for counts/edges, fatal for the marker.
    expectParseTotal(rebuild(I, ""));
    // File truncated mid-record.
    expectParseTotal(Text.substr(0, Text.find(L) + L.size() / 2));
    Mutants += 5;
  }
  // The sweep must actually have covered the evidence trailer.
  EXPECT_GE(Mutants, 5u * 4u);
}

/// Real attribution evidence: adapt mcf, simulate the enhanced binary,
/// and attach the per-trigger fate rollups to the profile.
ProfileData attribProfileOf(const Workload &W) {
  const ProfiledWorkload &PW = profiledWorkload(W);
  core::ToolOptions TO;
  core::PostPassTool Tool(PW.P, PW.PD, TO);
  ir::Program Enhanced = Tool.adapt();
  sim::SimStats S = sim::runProgram(ir::LinkedProgram::link(Enhanced),
                                    PW.W.BuildMemory,
                                    sim::MachineConfig::inOrder())
                        .Stats;
  ProfileData PD = PW.PD;
  PD.HasAttrib = true;
  PD.Attrib = S.Attribution;
  return PD;
}

TEST(ProfileIO, AttributionRecordsRoundTripByteIdentically) {
  ProfileData PD = attribProfileOf(makeMcf());
  ASSERT_FALSE(PD.Attrib.empty());
  std::string Text = writeProfileText(PD);
  ProfileData Parsed;
  std::string Err;
  ASSERT_TRUE(parseProfileText(Text, Parsed, Err)) << Err;
  EXPECT_TRUE(Parsed.HasAttrib);

  // Parsed order is the canonical (trigger-sorted) order; every field —
  // including the timeliness slack the feedback policy hoists on — must
  // survive.
  std::vector<sim::PrefetchAttribution> Sorted = PD.Attrib;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const sim::PrefetchAttribution &A,
               const sim::PrefetchAttribution &B) {
              return A.Trigger < B.Trigger;
            });
  ASSERT_EQ(Parsed.Attrib.size(), Sorted.size());
  for (size_t I = 0; I < Sorted.size(); ++I) {
    SCOPED_TRACE("record " + std::to_string(I));
    EXPECT_EQ(Parsed.Attrib[I].Trigger, Sorted[I].Trigger);
    EXPECT_EQ(Parsed.Attrib[I].Slice, Sorted[I].Slice);
    EXPECT_EQ(Parsed.Attrib[I].Spawns, Sorted[I].Spawns);
    EXPECT_EQ(Parsed.Attrib[I].MaxChainDepth, Sorted[I].MaxChainDepth);
    for (unsigned F = 0; F < sim::NumPrefetchFates; ++F)
      EXPECT_EQ(Parsed.Attrib[I].Fates[F], Sorted[I].Fates[F]);
    EXPECT_EQ(Parsed.Attrib[I].LateCycles, Sorted[I].LateCycles);
  }

  // The canonical text is a fixpoint, and the writer canonicalizes any
  // in-memory order — so profile-text cache keys are stable however the
  // attribution was produced.
  EXPECT_EQ(writeProfileText(Parsed), Text);
  std::reverse(Parsed.Attrib.begin(), Parsed.Attrib.end());
  EXPECT_EQ(writeProfileText(Parsed), Text);
}

TEST(ProfileIO, RejectsMalformedAttributionRecords) {
  const char *Hdr = "sspprof v1\nfuncs 2\nbaseline 1\n";
  const BadCase Cases[] = {
      {"fates before the marker", "fates 0 1 0 0 3 2 1 0 0 0 0 9\n",
       "'fates' before 'attrib'"},
      {"duplicate marker", "attrib 1\nattrib 1\n",
       "duplicate 'attrib' record"},
      {"unsupported version", "attrib 2\n",
       "unsupported 'attrib' version"},
      {"marker with junk", "attrib 1 1\n", "trailing junk"},
      {"out of order", "attrib 1\nfates 0 2 0 0 1 1 1 0 0 0 0 0\n"
                       "fates 0 1 0 0 1 1 1 0 0 0 0 0\n",
       "out of order"},
      {"duplicate trigger", "attrib 1\nfates 0 1 0 0 1 1 1 0 0 0 0 0\n"
                            "fates 0 1 0 0 1 1 1 0 0 0 0 0\n",
       "out of order"},
      {"trigger func out of range", "attrib 1\nfates 7 1 0 0 1 1 1 0 0 0 0 0\n",
       "out of range"},
      {"slice func out of range", "attrib 1\nfates 0 1 5 3 1 1 1 0 0 0 0 0\n",
       "out of range"},
      {"truncated fates", "attrib 1\nfates 0 1 0 0 3 2 1 0 0 0 0\n",
       "malformed 'fates' record"},
      {"trailing junk", "attrib 1\nfates 0 1 0 0 3 2 1 0 0 0 0 9 9\n",
       "trailing junk"},
  };
  for (const BadCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Text = std::string(Hdr) + C.Text;
    ProfileData PD;
    std::string Err;
    EXPECT_FALSE(parseProfileText(Text, PD, Err)) << Text;
    EXPECT_NE(Err.find("line "), std::string::npos) << Err;
    EXPECT_NE(Err.find(C.ErrSubstring), std::string::npos)
        << "got: " << Err;
  }
  // The (0, 0) slice sid is the simulator's "origin unknown" sentinel
  // and must stay accepted even though fn0's index namespace is real.
  ProfileData PD;
  std::string Err;
  EXPECT_TRUE(parseProfileText(std::string(Hdr) +
                                   "attrib 1\nfates 1 4 0 0 3 2 1 0 0 0 0 9\n",
                               PD, Err))
      << Err;
  ASSERT_EQ(PD.Attrib.size(), 1u);
  EXPECT_EQ(PD.Attrib[0].Slice, 0u);
  EXPECT_EQ(PD.Attrib[0].LateCycles, 9u);
}

TEST(ProfileIO, MutatedAttributionRecordsFailLocatedOrStayCanonical) {
  ProfileData PD = attribProfileOf(makeMcf());
  ASSERT_FALSE(PD.Attrib.empty());
  std::string Text = writeProfileText(PD);

  std::vector<std::string> Lines;
  for (size_t Pos = 0; Pos < Text.size();) {
    size_t Nl = Text.find('\n', Pos);
    Lines.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  auto rebuild = [&](size_t Skip, const std::string &Replace) {
    std::string S;
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (I == Skip)
        S += Replace;
      else
        S += Lines[I] + "\n";
    }
    return S;
  };

  unsigned Mutants = 0;
  for (size_t I = 0; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    if (L.rfind("attrib", 0) != 0 && L.rfind("fates", 0) != 0)
      continue;
    SCOPED_TRACE("line " + std::to_string(I + 1) + ": " + L);
    expectParseTotal(rebuild(I, L.substr(0, L.find_last_of(' ')) + "\n"));
    expectParseTotal(rebuild(I, "x" + L + "\n"));
    expectParseTotal(rebuild(I, L + "\n" + L + "\n"));
    expectParseTotal(rebuild(I, ""));
    expectParseTotal(Text.substr(0, Text.find(L) + L.size() / 2));
    Mutants += 5;
  }
  // Marker plus at least one fates record must have been swept.
  EXPECT_GE(Mutants, 5u * 2u);
}

// Instruction ids index dense tables (the cache profile, the instruction
// counts), so every id field stops below ir::MaxInstId. A `load` id of
// 4294967295 used to wrap a DenseSidMap row to size 0 and crash.
TEST(ProfileIO, RejectsInstructionIdsAtTheBound) {
  const char *Hdr = "sspprof v1\nfuncs 1\n";
  for (const std::string &Id : {std::to_string(ir::MaxInstId),
                               std::string("400000000"),
                               std::string("4294967295")}) {
    const std::pair<const char *, std::string> Records[] = {
        {"load", "load 0 " + Id + " 1 0 0 0 1 0 0 0 0 230\n"},
        {"instcount", "depevidence 1\ninstcount 0 " + Id + " 5\n"},
        {"memdep", "depevidence 1\nmemdep 0 " + Id + " 1 5\n"},
        {"regdep", "depevidence 1\nregdep 0 1 " + Id + " 5\n"},
        {"fates trigger",
         "attrib 1\nfates 0 " + Id + " 0 0 3 2 1 0 0 0 0 9\n"},
        {"fates slice", "attrib 1\nfates 0 1 0 " + Id + " 3 2 1 0 0 0 0 9\n"},
    };
    for (const auto &[Name, Record] : Records) {
      SCOPED_TRACE(std::string(Name) + " " + Id);
      ProfileData PD;
      std::string Err;
      EXPECT_FALSE(parseProfileText(Hdr + Record, PD, Err));
      EXPECT_NE(Err.find("line "), std::string::npos) << Err;
      EXPECT_NE(Err.find("instruction id " + Id +
                         " out of range (ids must be below 1048576)"),
                std::string::npos)
          << Err;
    }
  }
  ProfileData PD;
  std::string Err;
  EXPECT_TRUE(parseProfileText(std::string(Hdr) +
                                   "load 0 1048575 1 0 0 0 1 0 0 0 0 230\n",
                               PD, Err))
      << Err;
  EXPECT_EQ(PD.Loads.count(ir::makeStaticId(0, ir::MaxInstId - 1)), 1u);
}

// An `instcount` id sizes nothing: a row holds its records. One record at
// the top id in each of 600 functions used to allocate 8 MiB per function
// (4.7 GiB for this 25 KB text); it parses into 600 one-entry rows and
// writes back byte-identically.
TEST(ProfileIO, InstCountIdsSizeNoTable) {
  std::string Text = "sspprof v1\nbaseline 0\nfuncs 600\n";
  for (unsigned F = 0; F < 600; ++F)
    Text += "blockcounts " + std::to_string(F) + " 0:\n";
  Text += "depevidence 1\n";
  for (unsigned F = 0; F < 600; ++F)
    Text += "instcount " + std::to_string(F) + " 1048575 1\n";
  ProfileData PD;
  std::string Err;
  ASSERT_TRUE(parseProfileText(Text, PD, Err)) << Err;
  ASSERT_EQ(PD.InstCounts.size(), 600u);
  for (const analysis::InstCountRow &Row : PD.InstCounts) {
    ASSERT_EQ(Row.size(), 1u);
    EXPECT_EQ(Row[0], std::make_pair(ir::MaxInstId - 1, uint64_t(1)));
  }
  EXPECT_EQ(writeProfileText(PD), Text);
}

// A `load` id sizes nothing either: one record at the top id in each of
// 600 functions used to grow a 4 MiB slot row per function (2.4 GiB for
// this 33 KB text). It parses into 600 entries, in file order, and writes
// back byte-identically.
TEST(ProfileIO, LoadIdsSizeNoTable) {
  std::string Text = "sspprof v1\nbaseline 0\nfuncs 600\n";
  for (unsigned F = 0; F < 600; ++F)
    Text += "blockcounts " + std::to_string(F) + " 0:\n";
  for (unsigned F = 600; F-- > 0;)
    Text += "load " + std::to_string(F) + " 1048575 1 0 0 0 1 0 0 0 0 230\n";
  ProfileData PD;
  std::string Err;
  ASSERT_TRUE(parseProfileText(Text, PD, Err)) << Err;
  ASSERT_EQ(PD.Loads.size(), 600u);
  uint32_t F = 600;
  for (const auto &[Sid, St] : PD.Loads) {
    EXPECT_EQ(Sid, ir::makeStaticId(--F, ir::MaxInstId - 1));
    EXPECT_EQ(St.MissCycles, 230u);
  }
  EXPECT_EQ(writeProfileText(PD), Text);
}

// checkProfileMatches: a `load` record naming an instruction that is not a
// load is rejected (slicing starts from it); a sid the program lacks is
// accepted and later ignored by load selection.
TEST(ProfileIO, CheckRejectsLoadRecordNamingANonLoad) {
  ir::Program P;
  std::string Err;
  ASSERT_TRUE(ir::parseProgram("function main (fn0) [entry]:\n"
                               "  bb0 <entry>:\n"
                               "    movi r1 = 4096\n"
                               "    ld8 r2 = [r1 + 0]\n"
                               "    halt\n",
                               P, Err))
      << Err;
  auto Check = [&P](const char *LoadId, std::string &Error) {
    ProfileData PD;
    std::string Text = std::string("sspprof v1\nfuncs 1\n"
                                   "blockcounts 0 1: 1\nload 0 ") +
                       LoadId + " 1 0 0 0 1 0 0 0 0 230\n";
    EXPECT_TRUE(parseProfileText(Text, PD, Error)) << Error;
    return checkProfileMatches(PD, P, Error);
  };
  EXPECT_TRUE(Check("1", Err)) << Err;
  EXPECT_TRUE(Check("7", Err)) << Err;
  EXPECT_FALSE(Check("0", Err));
  EXPECT_EQ(Err, "load record fn0 @0 names 'movi r1 = 4096' at fn0:bb0:0, "
                 "not a load");
  EXPECT_FALSE(Check("2", Err));
  EXPECT_EQ(Err, "load record fn0 @2 names 'halt' at fn0:bb0:2, not a load");
}

TEST(ProfileIO, ErrorLineNumbersAreExact) {
  ProfileData PD;
  std::string Err;
  EXPECT_FALSE(
      parseProfileText("sspprof v1\nfuncs 1\n\nbogus\n", PD, Err));
  EXPECT_EQ(Err.find("line 4:"), 0u) << Err;
}

} // namespace
