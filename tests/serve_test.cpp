//===- tests/serve_test.cpp - AdaptService protocol and cache behavior ----===//
//
// End-to-end coverage of the adaptation-as-a-service engine: cache hits
// must be byte-identical to cold misses and to the one-shot library
// path, eviction must honor the byte budget, hash collisions must fall
// back to the full-key compare, responses must be deterministic for any
// --jobs, and malformed requests must produce located error responses
// without killing the service.
//
//===----------------------------------------------------------------------===//

#include "ProfiledFixture.h"
#include "core/AdaptService.h"
#include "core/OptionKeys.h"
#include "support/FlagParser.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"
#include "profile/ProfileIO.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::core;
using namespace ssp::workloads;

namespace {

/// Request/response framing helpers mirroring the protocol grammar in
/// core/AdaptService.h.
std::string frameRequest(const std::string &Id, const std::string &Prog,
                         const std::string &Prof,
                         const std::vector<std::string> &Options = {}) {
  std::string S = "request " + Id + "\n";
  S += "program " + std::to_string(Prog.size()) + "\n" + Prog + "\n";
  S += "profile " + std::to_string(Prof.size()) + "\n" + Prof + "\n";
  for (const std::string &O : Options)
    S += "option " + O + "\n";
  S += "end\n";
  return S;
}

std::string okResponse(const std::string &Id, const std::string &Report,
                       const std::string &Binary) {
  return "response " + Id + " ok\nreport " + std::to_string(Report.size()) +
         "\n" + Report + "\nbinary " + std::to_string(Binary.size()) + "\n" +
         Binary + "\nend\n";
}

/// The texts a client would send for workload \p W, plus the expected
/// one-shot result computed through the library path the `ssp-adapt`
/// tool uses.
struct Job {
  std::string Prog, Prof;     // Request payloads.
  std::string Report, Binary; // Expected response payloads.
};

Job makeJob(const Workload &W) {
  const ProfiledWorkload &PW = profiledWorkload(W);
  Job J;
  J.Prog = PW.P.str();
  J.Prof = profile::writeProfileText(PW.PD);
  ToolOptions TO;
  TO.FatalOnVerifyError = false;
  PostPassTool Tool(PW.P, PW.PD, TO);
  AdaptationReport Rep;
  ir::Program Enhanced = Tool.adapt(&Rep);
  J.Report = renderReportText(PW.PD.BaselineCycles, Rep);
  J.Binary = Enhanced.str();
  return J;
}

TEST(Serve, HitIsByteIdenticalToColdMissAndOneShot) {
  Job J = makeJob(makeMcf());
  AdaptService S(ServeOptions{});

  // Cold miss: the response carries exactly the one-shot library result.
  std::string Cold = S.processBatch(frameRequest("r1", J.Prog, J.Prof));
  EXPECT_EQ(Cold, okResponse("r1", J.Report, J.Binary));
  EXPECT_EQ(S.cache().stats().Misses, 1u);
  EXPECT_EQ(S.cache().stats().Hits, 0u);

  // Warm hit, across a flush boundary: identical bytes modulo the id.
  std::string Warm = S.processBatch(frameRequest("r2", J.Prog, J.Prof));
  EXPECT_EQ(Warm, okResponse("r2", J.Report, J.Binary));
  EXPECT_EQ(S.cache().stats().Hits, 1u);
  EXPECT_EQ(S.cache().stats().Misses, 1u);
  EXPECT_EQ(S.cache().size(), 1u);
}

TEST(Serve, OptionSpellingsShareOneCacheKey) {
  Job J = makeJob(makeTreeaddDF());
  AdaptService S(ServeOptions{});
  std::string A = S.processBatch(
      frameRequest("a", J.Prog, J.Prof, {"speculative=true"}));
  std::string B =
      S.processBatch(frameRequest("b", J.Prog, J.Prof, {"speculative=1"}));
  // Canonicalized options: the second spelling is a hit, not a second
  // entry, and serves the same payload bytes.
  EXPECT_EQ(S.cache().size(), 1u);
  EXPECT_EQ(S.cache().stats().Hits, 1u);
  EXPECT_EQ(A.substr(A.find('\n')), B.substr(B.find('\n')));
}

TEST(Serve, DistinctOptionsGetDistinctEntries) {
  Job J = makeJob(makeTreeaddBF());
  AdaptService S(ServeOptions{});
  S.processBatch(frameRequest("a", J.Prog, J.Prof));
  S.processBatch(frameRequest("b", J.Prog, J.Prof, {"max-loads=1"}));
  EXPECT_EQ(S.cache().size(), 2u);
  EXPECT_EQ(S.cache().stats().Misses, 2u);
}

TEST(Serve, OptionalPayloadNewlineSupportsCatFraming) {
  Job J = makeJob(makeEm3d());
  AdaptService S(ServeOptions{});
  // Shell framing: the payload's own trailing newline is the only one —
  // no separate frame terminator after the length-prefixed bytes.
  ASSERT_FALSE(J.Prog.empty());
  ASSERT_EQ(J.Prog.back(), '\n');
  std::string CatStyle = "request c\n";
  CatStyle += "program " + std::to_string(J.Prog.size()) + "\n" + J.Prog;
  CatStyle += "profile " + std::to_string(J.Prof.size()) + "\n" + J.Prof;
  CatStyle += "end\n";
  EXPECT_EQ(S.processBatch(CatStyle), okResponse("c", J.Report, J.Binary));
  // Explicit framing of the same content is a cache hit on the same key.
  EXPECT_EQ(S.processBatch(frameRequest("d", J.Prog, J.Prof)),
            okResponse("d", J.Report, J.Binary));
  EXPECT_EQ(S.cache().stats().Hits, 1u);
}

TEST(Serve, EvictionHonorsByteBudget) {
  Job A = makeJob(makeMcf());
  Job B = makeJob(makeHealth());
  // Budget sized to hold one adaptation but not two.
  uint64_t OneEntry = A.Prog.size() + A.Prof.size() + A.Report.size() +
                      A.Binary.size() + 1024;
  ServeOptions O;
  O.CacheBytes = OneEntry;
  AdaptService S(O);
  S.processBatch(frameRequest("a", A.Prog, A.Prof));
  EXPECT_EQ(S.cache().size(), 1u);
  S.processBatch(frameRequest("b", B.Prog, B.Prof));
  EXPECT_GE(S.cache().stats().Evictions, 1u);
  EXPECT_LE(S.cache().usedBytes(), O.CacheBytes);
  // The evicted key is truly gone: re-requesting it is a miss again, and
  // still byte-identical.
  EXPECT_EQ(S.processBatch(frameRequest("c", A.Prog, A.Prof)),
            okResponse("c", A.Report, A.Binary));
  EXPECT_EQ(S.cache().stats().Hits, 0u);
  EXPECT_EQ(S.cache().stats().Misses, 3u);
}

TEST(Serve, HashCollisionsFallBackToFullKeyCompare) {
  Job A = makeJob(makeMcf());
  Job B = makeJob(makeEm3d());
  AdaptService S(ServeOptions{});
  // Force every key into one bucket; correctness must now come entirely
  // from the full-key byte compare.
  S.cache().setHashFunction([](const ServeKey &) { return 42u; });
  EXPECT_EQ(S.processBatch(frameRequest("a1", A.Prog, A.Prof)),
            okResponse("a1", A.Report, A.Binary));
  EXPECT_EQ(S.processBatch(frameRequest("b1", B.Prog, B.Prof)),
            okResponse("b1", B.Report, B.Binary));
  EXPECT_EQ(S.processBatch(frameRequest("a2", A.Prog, A.Prof)),
            okResponse("a2", A.Report, A.Binary));
  EXPECT_EQ(S.processBatch(frameRequest("b2", B.Prog, B.Prof)),
            okResponse("b2", B.Report, B.Binary));
  EXPECT_EQ(S.cache().stats().Hits, 2u);
  EXPECT_EQ(S.cache().stats().Misses, 2u);
  EXPECT_GT(S.cache().stats().Collisions, 0u);
}

TEST(Serve, ResponsesAreDeterministicForAnyJobCount) {
  Job A = makeJob(makeMcf());
  Job B = makeJob(makeEm3d());
  Job C = makeJob(makeHealth());
  // One session mixing misses, a batch-duplicate, an option variant, a
  // mid-session flush, and post-flush hits.
  std::string Session;
  Session += frameRequest("m1", A.Prog, A.Prof);
  Session += frameRequest("m2", B.Prog, B.Prof);
  Session += frameRequest("dup", A.Prog, A.Prof);
  Session += frameRequest("opt", A.Prog, A.Prof, {"max-loads=1"});
  Session += "flush\n";
  Session += frameRequest("h1", A.Prog, A.Prof);
  Session += frameRequest("m3", C.Prog, C.Prof);

  std::string Expected;
  for (unsigned Jobs : {1u, 4u, 8u}) {
    SCOPED_TRACE(Jobs);
    ServeOptions O;
    O.Jobs = Jobs;
    AdaptService S(O);
    std::string Out = S.processBatch(Session);
    if (Expected.empty())
      Expected = Out;
    EXPECT_EQ(Out, Expected);
    EXPECT_EQ(S.cache().stats().Hits, 1u);   // h1 only.
    EXPECT_EQ(S.cache().stats().Misses, 5u); // m1 m2 dup opt m3.
    EXPECT_EQ(S.cache().size(), 4u);         // dup shares m1's entry.
  }
  // The duplicate's payload equals the first miss's payload.
  EXPECT_NE(Expected.find(okResponse("dup", A.Report, A.Binary)),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Hardening: malformed input yields located error responses, and the
// service keeps answering afterwards.
//===----------------------------------------------------------------------===//

void expectErrorResponse(const std::string &Out, const std::string &Id,
                         const std::string &MsgSubstring) {
  EXPECT_NE(Out.find("response " + Id + " error\n"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find(MsgSubstring), std::string::npos) << Out;
}

TEST(Serve, MalformedFramingIsRejectedWithLocatedErrors) {
  Job J = makeJob(makeTreeaddDF());
  AdaptService S(ServeOptions{});
  struct Case {
    const char *Name;
    std::string Session;
    const char *Id;
    const char *Msg;
    bool Located = true; ///< Framing errors carry a "line N:" location.
  };
  const Case Cases[] = {
      {"junk top-level line", "hello world\n", "?",
       "expected 'request' or 'flush'"},
      {"request without id", "request\nend\n", "?",
       "'request' needs a single id token"},
      {"bad payload length", "request x\nprogram abc\nend\n", "x",
       "bad payload length"},
      {"truncated payload", "request x\nprogram 4096\nshort", "x",
       "truncated payload (got 5 of 4096 bytes)"},
      {"unknown section",
       "request x\nbogus section\nend\n", "x",
       "expected 'program', 'profile', 'option', or 'end'"},
      {"eof inside request", "request x\nprogram 3\nabc\n", "x",
       "unexpected end of input"},
      {"malformed option", "request x\noption cutoff\nend\n", "x",
       "malformed option (want KEY=VALUE)"},
      {"missing program", "request x\nend\n", "x",
       "missing program section", false},
      {"missing profile",
       "request x\nprogram " + std::to_string(J.Prog.size()) + "\n" +
           J.Prog + "\nend\n",
       "x", "missing profile section", false},
      {"duplicate section",
       "request x\nprogram 3\nabc\nprogram 3\nabc\nend\n", "x",
       "duplicate 'program' section"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Out = S.processBatch(C.Session);
    expectErrorResponse(Out, C.Id, C.Msg);
    if (C.Located) {
      EXPECT_NE(Out.find("line "), std::string::npos) << Out;
    }
  }
  // The service is still alive and fully functional.
  EXPECT_EQ(S.processBatch(frameRequest("ok", J.Prog, J.Prof)),
            okResponse("ok", J.Report, J.Binary));
}

TEST(Serve, BadRequestContentIsRejectedWithoutKillingTheBatch) {
  Job J = makeJob(makeTreeaddDF());
  Job Other = makeJob(makeEm3d());
  AdaptService S(ServeOptions{});
  struct Case {
    const char *Name;
    std::string Session;
    const char *Msg;
  };
  const Case Cases[] = {
      {"unparsable program",
       frameRequest("x", "garbage program text\n", J.Prof), "program: "},
      {"unparsable profile",
       frameRequest("x", J.Prog, "garbage profile text\n"),
       "profile: line 1"},
      {"profile/program mismatch",
       frameRequest("x", J.Prog, Other.Prof), "does not match program"},
      {"unknown option", frameRequest("x", J.Prog, J.Prof, {"bogus=1"}),
       "option bogus: unknown option"},
      {"out-of-range option",
       frameRequest("x", J.Prog, J.Prof, {"cutoff=2"}),
       "option cutoff: expected a fraction in [0, 1]"},
      {"bad option value",
       frameRequest("x", J.Prog, J.Prof, {"max-loads=many"}),
       "option max-loads: expected an integer in [1, 4096]"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    // The bad request rides in one batch with a good one; only the bad
    // one errors.
    std::string Out = S.processBatch(
        C.Session + frameRequest("good", Other.Prog, Other.Prof));
    expectErrorResponse(Out, "x", C.Msg);
    EXPECT_NE(Out.find(okResponse("good", Other.Report, Other.Binary)),
              std::string::npos);
  }
}

TEST(Serve, ResyncAfterFramingErrorAnswersNextRequest) {
  Job J = makeJob(makeTreeaddDF());
  AdaptService S(ServeOptions{});
  std::string Session = "request bad\nwat is this\nstray line\nend\n" +
                        frameRequest("after", J.Prog, J.Prof);
  std::string Out = S.processBatch(Session);
  expectErrorResponse(Out, "bad", "expected 'program'");
  EXPECT_NE(Out.find(okResponse("after", J.Report, J.Binary)),
            std::string::npos);
}

TEST(Serve, ErrorStateDoesNotPoisonWarmOrCacheState) {
  Job J = makeJob(makeMcf());
  AdaptService S(ServeOptions{});
  // A profile that parses but fails cross-validation leaves a sticky
  // warm-entry error; the same program with the right profile must still
  // be served from a fresh warm entry.
  Job Other = makeJob(makeEm3d());
  std::string Bad =
      S.processBatch(frameRequest("x", J.Prog, Other.Prof));
  expectErrorResponse(Bad, "x", "does not match program");
  EXPECT_EQ(S.processBatch(frameRequest("y", J.Prog, J.Prof)),
            okResponse("y", J.Report, J.Binary));
  // And the failed request was not cached as a success.
  EXPECT_EQ(S.cache().size(), 1u);
}

//===----------------------------------------------------------------------===//
// The ToolOptions key table (core/OptionKeys.h)
//===----------------------------------------------------------------------===//

/// Every request key set to a non-default value, field by field.
ToolOptions allKeysNonDefault() {
  ToolOptions N;
  N.EnableChaining = false;
  N.EnableConditionPrediction = false;
  N.DelinquentCoverage = 0.85;
  N.ReducedMissCutoff = 0.1;
  N.Feedback.DeepenLateMax = 0.2;
  N.Feedback.DropUsefulMax = 0.05;
  N.Feedback.HoistLateMin = 0.6;
  N.Feedback.MinSample = 128;
  N.FeedbackRounds = 3;
  N.Feedback.ThrottleEvictedMin = 0.35;
  N.InnerUnroll = 4;
  N.EnableLoopRotation = false;
  N.MaxRegionDepth = 3;
  N.MaxDelinquentLoads = 12;
  N.MinSlackCycles = 8;
  N.Slicing.RejectStoreDependent = true;
  N.EnableRestartTriggers = false;
  N.Slicing.MaxSize = 32;
  N.EnableSpecDeps = true;
  N.SpecDepThreshold = 0.05;
  N.EnableSpeculativeSlicing = false;
  N.EnableStreams = true;
  N.MaxTripBudget = 2048;
  return N;
}

// Byte-for-byte output of the hand-written renderers the key table
// replaced: the serve cache key and the warm-memo key must not move.
const char DefaultCanonical[] =
    "chaining=1\ncond-prediction=1\ncoverage=0.90000000000000002\n"
    "cutoff=0.29999999999999999\nfeedback-deepen-late=0.29999999999999999\n"
    "feedback-drop-max=0.02\nfeedback-hoist-late=0.5\n"
    "feedback-min-sample=256\nfeedback-rounds=0\n"
    "feedback-throttle-evicted=0.25\ninner-unroll=2\nloop-rotation=1\n"
    "max-depth=4\nmax-loads=10\nmin-slack=16\nreject-store-dep=0\n"
    "restart-triggers=1\nslice-max=48\nspec-deps=0\nspec-threshold=0\n"
    "speculative=1\nstreams=0\ntrip-budget=4096\n";
const char DefaultAnalysis[] =
    "cond-prediction=1\nloop-rotation=1\nreject-store-dep=0\nslice-max=48\n"
    "spec-deps=0\nspec-threshold=0\nspeculative=1\n";
const char NonDefaultCanonical[] =
    "chaining=0\ncond-prediction=0\ncoverage=0.84999999999999998\n"
    "cutoff=0.10000000000000001\nfeedback-deepen-late=0.20000000000000001\n"
    "feedback-drop-max=0.050000000000000003\n"
    "feedback-hoist-late=0.59999999999999998\nfeedback-min-sample=128\n"
    "feedback-rounds=3\nfeedback-throttle-evicted=0.34999999999999998\n"
    "inner-unroll=4\nloop-rotation=0\nmax-depth=3\nmax-loads=12\n"
    "min-slack=8\nreject-store-dep=1\nrestart-triggers=0\nslice-max=32\n"
    "spec-deps=1\nspec-threshold=0.050000000000000003\nspeculative=0\n"
    "streams=1\ntrip-budget=2048\n";
const char NonDefaultAnalysis[] =
    "cond-prediction=0\nloop-rotation=0\nreject-store-dep=1\nslice-max=32\n"
    "spec-deps=1\nspec-threshold=0.050000000000000003\nspeculative=0\n";

/// Splits rendered option text into its "KEY=VALUE" lines.
std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  for (size_t B = 0, E; B < Text.size(); B = E + 1) {
    E = Text.find('\n', B);
    Out.push_back(Text.substr(B, E - B));
  }
  return Out;
}

TEST(OptionKeys, RenderingIsByteIdenticalToTheReplacedRenderers) {
  EXPECT_EQ(renderOptions(ToolOptions()), DefaultCanonical);
  EXPECT_EQ(renderAnalysisOptions(ToolOptions()), DefaultAnalysis);
  EXPECT_EQ(renderOptions(allKeysNonDefault()), NonDefaultCanonical);
  EXPECT_EQ(renderAnalysisOptions(allKeysNonDefault()), NonDefaultAnalysis);
}

TEST(OptionKeys, ParseOfRenderRoundTripsEveryRow) {
  // The canonical text has one line per table row, so this walks every
  // row. Each row's parser must write exactly the field its renderer
  // reads: applying one non-default line to the defaults changes that
  // line only.
  const std::vector<std::string> Default = lines(DefaultCanonical);
  const std::vector<std::string> Changed = lines(NonDefaultCanonical);
  ASSERT_EQ(Default.size(), 23u);
  ASSERT_EQ(Changed.size(), Default.size());
  for (size_t I = 0; I < Changed.size(); ++I) {
    SCOPED_TRACE(Changed[I]);
    size_t Eq = Changed[I].find('=');
    ToolOptions TO;
    std::string Msg;
    ASSERT_TRUE(setOption(TO, Changed[I].substr(0, Eq),
                          Changed[I].substr(Eq + 1), Msg))
        << Msg;
    std::vector<std::string> Expected = Default;
    Expected[I] = Changed[I];
    EXPECT_EQ(lines(renderOptions(TO)), Expected);
  }
  // And the whole text parses back into itself from either end.
  ToolOptions FromDefault, FromChanged = allKeysNonDefault();
  std::string Msg;
  for (const std::string &L : Changed)
    ASSERT_TRUE(setOption(FromDefault, L.substr(0, L.find('=')),
                          L.substr(L.find('=') + 1), Msg));
  for (const std::string &L : Default)
    ASSERT_TRUE(setOption(FromChanged, L.substr(0, L.find('=')),
                          L.substr(L.find('=') + 1), Msg));
  EXPECT_EQ(renderOptions(FromDefault), NonDefaultCanonical);
  EXPECT_EQ(renderOptions(FromChanged), DefaultCanonical);
}

TEST(OptionKeys, CliAndRequestSpellingsShareOneCanonicalText) {
  std::vector<std::string> Args = {"ssp-adapt", "--no-chaining",
                                   "--spec-deps=0.05", "--streams",
                                   "--feedback=2"};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  ToolOptions Cli;
  support::FlagParser P(static_cast<int>(Argv.size()), Argv.data());
  addToolFlags(P, Cli);
  ASSERT_TRUE(P.parse());

  ToolOptions Request;
  std::string Msg;
  for (const char *KV : {"chaining=0", "spec-deps=1", "spec-threshold=0.05",
                         "streams=1", "feedback-rounds=2"}) {
    std::string S = KV;
    ASSERT_TRUE(setOption(Request, S.substr(0, S.find('=')),
                          S.substr(S.find('=') + 1), Msg))
        << Msg;
  }
  EXPECT_EQ(renderOptions(Cli), renderOptions(Request));
  EXPECT_NE(renderOptions(Cli), DefaultCanonical);
}

TEST(OptionKeys, CliRejectsWhatRequestsReject) {
  // Values the request parser rejects fail the CLI flag too (the flags
  // used to parse with strtoul/strtod and let signs and spaces through).
  for (const char *Flag : {"--feedback=+1", "--feedback= 2", "--feedback=65",
                           "--feedback=", "--spec-deps=2", "--spec-deps=",
                           "--no-chaining=1", "--streams=0"}) {
    SCOPED_TRACE(Flag);
    std::string Arg0 = "ssp-adapt", Arg1 = Flag;
    char *Argv[] = {Arg0.data(), Arg1.data()};
    ToolOptions TO;
    support::FlagParser P(2, Argv);
    addToolFlags(P, TO);
    EXPECT_FALSE(P.parse());
  }
  ToolOptions TO;
  std::string Msg;
  EXPECT_FALSE(setOption(TO, "feedback-rounds", "+1", Msg));
  EXPECT_EQ(Msg, "option feedback-rounds: expected an integer in [0, 64], "
                 "got '+1'");
}

} // namespace
