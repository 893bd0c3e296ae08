//===- tests/parser_test.cpp - IR text parser tests -----------------------===//
//
// Round-trip property: for every workload, print -> parse -> print must be
// a fixed point, and the parsed program must behave identically (verified
// functionally). Plus targeted syntax and error-message tests.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Program.h"
#include "profile/Profile.h"
#include "workloads/Workload.h"

#include "StructuralCheck.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace ssp;
using namespace ssp::ir;

namespace {

Program parseOk(const std::string &Text) {
  Program P;
  std::string Err;
  bool Ok = parseProgram(Text, P, Err);
  EXPECT_TRUE(Ok) << Err;
  return P;
}

std::string parseErr(const std::string &Text) {
  Program P;
  std::string Err;
  EXPECT_FALSE(parseProgram(Text, P, Err));
  return Err;
}

} // namespace

TEST(Parser, MinimalProgram) {
  Program P = parseOk("function main (fn0) [entry]:\n"
                      "  bb0 <entry>:\n"
                      "    movi r1 = 42\n"
                      "    halt\n");
  ASSERT_EQ(P.numFuncs(), 1u);
  EXPECT_EQ(P.getEntry(), 0u);
  ASSERT_EQ(P.func(0).numBlocks(), 1u);
  ASSERT_EQ(P.func(0).block(0).Insts.size(), 2u);
  EXPECT_EQ(P.func(0).block(0).Insts[0].Op, Opcode::MovI);
  EXPECT_EQ(P.func(0).block(0).Insts[0].Imm, 42);
}

TEST(Parser, AllInstructionForms) {
  Program P = parseOk(
      "function f (fn0) [entry]:\n"
      "  bb0 <b>:\n"
      "    add r2 = r2, r6\n"
      "    addi r1 = r1, -64\n"
      "    cmp.lt p1 = r1, r4\n"
      "    cmpi.ne p2 = r14, 0\n"
      "    fadd f1 = f2, f3\n"
      "    xtof f1 = r2\n"
      "    ld8 r3 = [r1 + 8]\n"
      "    ldf f2 = [r3 + 0]\n"
      "    st8 [r11 + 0] = r2\n"
      "    stf [r11 + 8] = f1\n"
      "    lfetch [r3 + 0]\n"
      "    call fn1\n"
      "    calli [r5]\n"
      "    lib.st lib[0] = r1\n"
      "    lib.sti lib[2] = 42\n"
      "    lib.ld r1 = lib[0]\n"
      "    nop\n"
      "    br (p1) bb0\n"
      "function g (fn1):\n"
      "  bb0 <e>:\n"
      "    ret\n");
  const auto &Insts = P.func(0).block(0).Insts;
  ASSERT_EQ(Insts.size(), 18u);
  EXPECT_EQ(Insts[1].Imm, -64);
  EXPECT_EQ(Insts[2].Cond, CondCode::LT);
  EXPECT_EQ(Insts[3].Cond, CondCode::NE);
  EXPECT_EQ(Insts[14].Op, Opcode::CopyToLIBI);
  EXPECT_EQ(Insts[14].Target, 2u);
  EXPECT_EQ(Insts[17].Op, Opcode::Br);
}

TEST(Parser, AttachmentKinds) {
  Program P = parseOk("function f (fn0) [entry]:\n"
                      "  bb0 <entry>:\n"
                      "    chk.c bb2\n"
                      "    halt\n"
                      "  bb1 <sl> [slice]:\n"
                      "    kill\n"
                      "  bb2 <st> [stub]:\n"
                      "    spawn bb1\n"
                      "    rfi\n");
  EXPECT_EQ(P.func(0).block(1).Kind, BlockKind::Slice);
  EXPECT_EQ(P.func(0).block(2).Kind, BlockKind::Stub);
  EXPECT_TRUE(tests::wellFormed(P));
}

TEST(Parser, CommentsAndBlankLines) {
  Program P = parseOk("# a comment\n"
                      "function f (fn0) [entry]:\n"
                      "\n"
                      "  bb0 <entry>:   # trailing comment\n"
                      "    movi r1 = 1  # another\n"
                      "    halt\n");
  EXPECT_EQ(P.func(0).block(0).Insts.size(), 2u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  std::string Err = parseErr("function f (fn0) [entry]:\n"
                             "  bb0 <entry>:\n"
                             "    frobnicate r1\n");
  EXPECT_NE(Err.find("line 3"), std::string::npos);
  EXPECT_NE(Err.find("frobnicate"), std::string::npos);
}

TEST(Parser, RejectsInstructionOutsideBlock) {
  std::string Err = parseErr("function f (fn0):\n    movi r1 = 1\n");
  EXPECT_NE(Err.find("outside a block"), std::string::npos);
}

TEST(Parser, RejectsOutOfOrderFunctionIndex) {
  std::string Err = parseErr("function f (fn3):\n  bb0 <e>:\n    halt\n");
  EXPECT_NE(Err.find("out of order"), std::string::npos);
}

TEST(Parser, RejectsBadRegister) {
  std::string Err = parseErr("function f (fn0) [entry]:\n"
                             "  bb0 <e>:\n"
                             "    movi r999 = 1\n");
  EXPECT_NE(Err.find("register"), std::string::npos);
}

TEST(Parser, RejectsEmptyInput) {
  std::string Err = parseErr("");
  EXPECT_NE(Err.find("no functions"), std::string::npos);
}

TEST(Parser, DataSections) {
  Program P;
  std::string Err;
  DataImage Data;
  bool Ok = parseProgram("data:\n"
                         "  0x8000: 7\n"
                         "  4096: 1 2 -3   # three consecutive words\n"
                         "function f (fn0) [entry]:\n"
                         "  bb0 <e>:\n"
                         "    halt\n"
                         "data:\n"
                         "  0x10000: 9\n",
                         P, Err, &Data);
  ASSERT_TRUE(Ok) << Err;
  ASSERT_EQ(Data.size(), 5u);
  EXPECT_EQ(Data[0], (std::pair<uint64_t, uint64_t>{0x8000, 7}));
  EXPECT_EQ(Data[1], (std::pair<uint64_t, uint64_t>{4096, 1}));
  EXPECT_EQ(Data[2], (std::pair<uint64_t, uint64_t>{4104, 2}));
  EXPECT_EQ(Data[3].second, static_cast<uint64_t>(-3));
  EXPECT_EQ(Data[4], (std::pair<uint64_t, uint64_t>{0x10000, 9}));
}

TEST(Parser, DataRejectsUnalignedAddress) {
  Program P;
  std::string Err;
  DataImage Data;
  EXPECT_FALSE(parseProgram("data:\n  0x8001: 3\n"
                            "function f (fn0) [entry]:\n  bb0 <e>:\n"
                            "    halt\n",
                            P, Err, &Data));
  EXPECT_NE(Err.find("aligned"), std::string::npos);
}

TEST(Parser, ListsumExampleParsesAndRuns) {
  // Keep the shipped example file working.
  std::ifstream In(SSP_SOURCE_DIR "/examples/listsum.ssp");
  ASSERT_TRUE(In.is_open()) << "examples/listsum.ssp missing";
  std::stringstream Buf;
  Buf << In.rdbuf();
  Program P;
  std::string Err;
  DataImage Data;
  ASSERT_TRUE(parseProgram(Buf.str(), P, Err, &Data)) << Err;
  EXPECT_TRUE(tests::wellFormed(P));
  EXPECT_GT(Data.size(), 100u);
  LinkedProgram LP = LinkedProgram::link(P);
  mem::SimMemory Mem;
  for (const auto &[Addr, Value] : Data)
    Mem.write(Addr, Value);
  profile::collectControlFlowProfile(LP, Mem);
  EXPECT_NE(Mem.read(0x8000), 0u) << "the list sum must be stored";
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

namespace {

class RoundTrip : public ::testing::TestWithParam<const char *> {};

workloads::Workload workloadNamed(const std::string &Name) {
  for (workloads::Workload &W : workloads::paperSuite())
    if (W.Name == Name)
      return W;
  if (Name == "mcf.hand")
    return workloads::makeMcfHandAdapted();
  if (Name == "health.hand")
    return workloads::makeHealthHandAdapted();
  return workloads::makeArcKernel(64, 1 << 10);
}

} // namespace

TEST_P(RoundTrip, PrintParsePrintIsFixedPoint) {
  workloads::Workload W = workloadNamed(GetParam());
  Program P = W.Build();
  std::string Text = P.str();
  Program Q = parseOk(Text);
  EXPECT_EQ(Q.str(), Text);
  EXPECT_EQ(Q.getEntry(), P.getEntry());
  EXPECT_TRUE(tests::wellFormed(Q));
}

TEST_P(RoundTrip, ParsedProgramBehavesIdentically) {
  workloads::Workload W = workloadNamed(GetParam());
  Program P = W.Build();
  Program Q = parseOk(P.str());
  LinkedProgram LP = LinkedProgram::link(Q);
  mem::SimMemory Mem;
  uint64_t Expected = W.BuildMemory(Mem);
  profile::collectControlFlowProfile(LP, Mem);
  EXPECT_EQ(Mem.read(workloads::ResultAddr), Expected);
}

INSTANTIATE_TEST_SUITE_P(Workloads, RoundTrip,
                         ::testing::Values("em3d", "health", "mst",
                                           "treeadd.df", "treeadd.bf",
                                           "mcf", "vpr", "mcf.hand",
                                           "health.hand", "arc-kernel"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '.' || C == '-')
                               C = '_';
                           return Name;
                         });

//===----------------------------------------------------------------------===//
// Negative-path hardening: truncated and garbled inputs must come back as
// parse errors (never a crash, silent misparse, or UB in the ctype calls).
//===----------------------------------------------------------------------===//

TEST(ParserHardening, RejectsBadHexAddress) {
  // word() accepts identifier characters, so "0xzz" used to strtoull to 0.
  std::string Err = parseErr("data:\n  0xzz: 3\n"
                             "function f (fn0) [entry]:\n  bb0 <e>:\n"
                             "    halt\n");
  EXPECT_NE(Err.find("hex"), std::string::npos) << Err;
}

TEST(ParserHardening, RejectsOverwideHexAddress) {
  std::string Err = parseErr("data:\n  0x11112222333344445: 3\n"
                             "function f (fn0) [entry]:\n  bb0 <e>:\n"
                             "    halt\n");
  EXPECT_NE(Err.find("hex"), std::string::npos) << Err;
}

TEST(ParserHardening, RejectsBareSignAsInteger) {
  // strtoll would quietly read a lone '-' as 0.
  std::string Err = parseErr("function f (fn0) [entry]:\n  bb0 <e>:\n"
                             "    movi r1 = -\n"
                             "    halt\n");
  EXPECT_NE(Err.find("line 3"), std::string::npos) << Err;
}

TEST(ParserHardening, RejectsNonNumericRegisterSuffix) {
  // "rx" used to strtol to register 0.
  std::string Err = parseErr("function f (fn0) [entry]:\n  bb0 <e>:\n"
                             "    mov rx = r1\n"
                             "    halt\n");
  EXPECT_NE(Err.find("register"), std::string::npos) << Err;
}

TEST(ParserHardening, RejectsNegativeBlockReference) {
  // bb-2 would wrap to a ~4-billion block index.
  std::string Err = parseErr("function f (fn0) [entry]:\n  bb0 <e>:\n"
                             "    jmp bb-2\n");
  EXPECT_NE(Err.find("block"), std::string::npos) << Err;
}

TEST(ParserHardening, RejectsInstructionIdsAtTheBound) {
  // Ids index dense per-function tables. @4294967295 used to wrap the
  // function's id watermark (Id + 1) and crash profiling; @400000000 made
  // profiling allocate a table of that size.
  for (const char *Id : {"1048576", "400000000", "4294967295",
                         "99999999999"}) {
    SCOPED_TRACE(Id);
    std::string Err = parseErr(std::string("function f (fn0) [entry]:\n"
                                           "  bb0 <e>:\n"
                                           "    movi r1 = 1 @") +
                               Id + "\n    halt\n");
    EXPECT_EQ(Err, std::string("line 3: instruction id @") + Id +
                       " out of range (ids must be below 1048576)");
  }
  Program P = parseOk("function f (fn0) [entry]:\n  bb0 <e>:\n"
                      "    movi r1 = 1 @1048575\n    halt\n");
  EXPECT_EQ(P.func(0).block(0).Insts[0].Id, MaxInstId - 1);
  EXPECT_EQ(P.func(0).numInstIds(), MaxInstId);
}

TEST(ParserHardening, RejectsLIBSlotsOutsideTheBuffer) {
  // A slot past the live-in buffer used to abort the simulator, and
  // 2^32 wrapped to slot 0.
  for (const char *Inst : {"lib.st lib[%] = r1", "lib.sti lib[%] = 7",
                           "lib.ld r1 = lib[%]"}) {
    for (const char *Slot : {"16", "-1", "4294967296"}) {
      std::string Line = Inst;
      Line.replace(Line.find('%'), 1, Slot);
      SCOPED_TRACE(Line);
      EXPECT_EQ(parseErr("function f (fn0) [entry]:\n  bb0 <e>:\n    " +
                         Line + "\n    halt\n"),
                std::string("line 3: LIB slot ") + Slot +
                    " out of range (16 slots)");
    }
  }
  Program P = parseOk("function f (fn0) [entry]:\n  bb0 <e>:\n"
                      "    lib.st lib[15] = r1\n    halt\n");
  EXPECT_EQ(P.func(0).block(0).Insts[0].Target, LIBSlots - 1);
}

TEST(ParserHardening, HighBitBytesAreAParseErrorNotUB) {
  // Sign-extended high-bit chars passed to isspace/isalnum are UB; the
  // parser must cast through unsigned char and report a clean error.
  std::string Garbled = "function f (fn0) [entry]:\n  bb0 <e>:\n"
                        "    movi r1 = 1\n    halt\n";
  for (size_t Pos :
       {size_t(0), size_t(10), size_t(30), Garbled.size() - 2}) {
    std::string T = Garbled;
    T[Pos] = static_cast<char>(0xC3);
    Program P;
    std::string Err;
    if (!parseProgram(T, P, Err)) {
      EXPECT_FALSE(Err.empty());
    }
  }
  SUCCEED();
}

TEST(ParserHardening, TruncatedHeaderFixtures) {
  for (const char *Fixture :
       {"function", "function f", "function f (fn", "function f (fn0",
        "function f (fn0)", "function f (fn0) [entry]:\n  bb0",
        "function f (fn0) [entry]:\n  bb0 <e",
        "function f (fn0) [entry]:\n  bb0 <e>:\n    add r1 = r2,"}) {
    SCOPED_TRACE(Fixture);
    EXPECT_FALSE(parseErr(Fixture).empty());
  }
}

// Deterministic mutation fuzz over the shipped example: every prefix
// truncation and a sweep of single-byte corruptions must either parse
// (and then re-verify clean) or fail with a line-numbered error. This is
// the negative-path mirror of ListsumExampleParsesAndRuns.
TEST(ParserHardening, ListsumMutationsNeverCrash) {
  std::ifstream In(SSP_SOURCE_DIR "/examples/listsum.ssp");
  ASSERT_TRUE(In.is_open()) << "examples/listsum.ssp missing";
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Orig = Buf.str();
  ASSERT_GT(Orig.size(), 512u);

  auto Check = [](const std::string &Text) {
    Program P;
    std::string Err;
    DataImage Data;
    if (parseProgram(Text, P, Err, &Data)) {
      // A mutation may still be syntactically valid; it must then be a
      // program the verifier can inspect without crashing.
      tests::checkStructure(P);
    } else {
      EXPECT_FALSE(Err.empty());
      EXPECT_NE(Err.find("line "), std::string::npos) << Err;
    }
  };

  // Truncations at a stride (every byte would be ~100k parses).
  for (size_t Len = 0; Len < Orig.size(); Len += 97)
    Check(Orig.substr(0, Len));

  // Single-byte corruptions: cycle through bytes that hit the interesting
  // paths (high-bit, NUL-adjacent control, sign, hex-breaking letters).
  const unsigned char Replacements[] = {0xFF, 0x80, 0x01, '-', 'z', '(',
                                        ']',  '0',  ' '};
  size_t R = 0;
  for (size_t Pos = 0; Pos < Orig.size(); Pos += 131) {
    std::string T = Orig;
    T[Pos] = static_cast<char>(Replacements[R++ % sizeof(Replacements)]);
    Check(T);
  }

  // Numbers strtoll used to clamp (2^64 and 10^30 in an immediate, a data
  // word and a decimal data address), a negative decimal data address
  // (it wrapped to 0xFFFF...FFF8) and a data line past 2^64 (its second
  // word wrapped to 0) are each a located error.
  const std::string Pow64 = "18446744073709551616";
  const std::string Pow30 = "1000000000000000000000000000000";
  const struct {
    std::string From, To, Msg;
  } Subs[] = {
      {"movi r1 = 1048576", "movi r1 = " + Pow64,
       "integer " + Pow64 + " out of range"},
      {"movi r1 = 1048576", "movi r1 = " + Pow30,
       "integer " + Pow30 + " out of range"},
      {"0x100000: 1368064", "0x100000: " + Pow64,
       "integer " + Pow64 + " out of range"},
      {"0x100000: 1368064", "0x100000: " + Pow30,
       "integer " + Pow30 + " out of range"},
      {"0x100000:", Pow64 + ":", "integer " + Pow64 + " out of range"},
      {"0x100000:", "-8:", "data address must not be negative"},
      {"0x100000:", "0xFFFFFFFFFFFFFFF8:",
       "data line runs past the end of the address space"},
  };
  for (const auto &Sub : Subs) {
    SCOPED_TRACE(Sub.To);
    size_t At = Orig.find(Sub.From);
    ASSERT_NE(At, std::string::npos);
    std::string T = Orig;
    T.replace(At, Sub.From.size(), Sub.To);
    std::string Line = std::to_string(
        std::count(Orig.begin(), Orig.begin() + At, '\n') + 1);
    Program P;
    std::string Err;
    DataImage Data;
    EXPECT_FALSE(parseProgram(T, P, Err, &Data));
    EXPECT_EQ(Err, "line " + Line + ": " + Sub.Msg);
  }

  // Negative words and the last word below 2^64 stay legal.
  std::string T = Orig;
  T.replace(T.find("0x8000: 0"), 9,
            "0xFFFFFFFFFFFFFFF8: -9223372036854775808");
  Program P;
  std::string Err;
  DataImage Data;
  ASSERT_TRUE(parseProgram(T, P, Err, &Data)) << Err;
  EXPECT_EQ(Data.front(),
            DataImage::value_type(0xFFFFFFFFFFFFFFF8, 0x8000000000000000));
}
