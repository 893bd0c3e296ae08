//===- tests/support_test.cpp - Unit tests for ssp::support ---------------===//

#include "core/ServeCache.h"
#include "support/Args.h"
#include "support/Hash.h"
#include "support/RNG.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

using namespace ssp;

TEST(RNG, DeterministicForSeed) {
  RNG A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 16; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(RNG, NextBelowInRange) {
  RNG R(7);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RNG, NextInRangeBounds) {
  RNG R(9);
  for (int I = 0; I < 10000; ++I) {
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(RNG, NextDoubleUnitInterval) {
  RNG R(11);
  for (int I = 0; I < 10000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RNG, ReasonableSpread) {
  RNG R(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 256; ++I)
    Seen.insert(R.nextBelow(1u << 20));
  // With 2^20 buckets, 256 draws should be almost all distinct.
  EXPECT_GT(Seen.size(), 250u);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T;
  T.row();
  T.cell(std::string("name"));
  T.cell(std::string("value"));
  T.row();
  T.cell(std::string("x"));
  T.cell(1234LL);
  std::string S = T.toString();
  EXPECT_NE(S.find("name"), std::string::npos);
  EXPECT_NE(S.find("1234"), std::string::npos);
  EXPECT_NE(S.find("----"), std::string::npos);
}

TEST(TablePrinter, FormatsDoubles) {
  TablePrinter T;
  T.row();
  T.cell(std::string("h"));
  T.row();
  T.cell(1.23456, 2);
  EXPECT_NE(T.toString().find("1.23"), std::string::npos);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(support::ThreadPool::defaultConcurrency(), 1u);
}

TEST(ThreadPool, InlinePoolRunsOnSubmittingThread) {
  support::ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  std::thread::id JobThread;
  Pool.submit([&] { JobThread = std::this_thread::get_id(); }).get();
  EXPECT_EQ(JobThread, std::this_thread::get_id());
}

TEST(ThreadPool, SubmitRunsEveryJob) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<int> Count{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 100; ++I)
    Futures.push_back(Pool.submit([&] { ++Count; }));
  for (std::future<void> &F : Futures)
    F.get();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  support::ThreadPool Pool(8);
  std::vector<std::atomic<int>> Marks(1000);
  Pool.parallelFor(Marks.size(), [&](size_t I) { ++Marks[I]; });
  for (const std::atomic<int> &M : Marks)
    EXPECT_EQ(M.load(), 1);
}

TEST(ThreadPool, ExceptionsReachTheWaiter) {
  support::ThreadPool Pool(2);
  std::future<void> F =
      Pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(F.get(), std::runtime_error);
  EXPECT_THROW(Pool.parallelFor(4,
                                [](size_t I) {
                                  if (I == 2)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> Count{0};
  {
    support::ThreadPool Pool(2);
    for (int I = 0; I < 50; ++I)
      Pool.submit([&] { ++Count; });
  } // Destructor joins after running everything queued.
  EXPECT_EQ(Count.load(), 50);
}

//===----------------------------------------------------------------------===//
// Checked CLI argument parsing
//===----------------------------------------------------------------------===//

TEST(Args, ParseUnsignedAcceptsPlainDecimal) {
  uint64_t V = 0;
  EXPECT_TRUE(support::parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(support::parseUnsigned("230", V));
  EXPECT_EQ(V, 230u);
  EXPECT_TRUE(support::parseUnsigned("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(Args, ParseUnsignedRejectsGarbage) {
  uint64_t V = 0;
  // The atoi class of bug this replaces: all of these read as 0.
  EXPECT_FALSE(support::parseUnsigned("", V));
  EXPECT_FALSE(support::parseUnsigned("garbage", V));
  EXPECT_FALSE(support::parseUnsigned("12x", V));
  EXPECT_FALSE(support::parseUnsigned("x12", V));
  EXPECT_FALSE(support::parseUnsigned(" 12", V));
  EXPECT_FALSE(support::parseUnsigned("12 ", V));
  EXPECT_FALSE(support::parseUnsigned("-1", V));
  EXPECT_FALSE(support::parseUnsigned("+1", V));
  EXPECT_FALSE(support::parseUnsigned("1.5", V));
  // One past UINT64_MAX.
  EXPECT_FALSE(support::parseUnsigned("18446744073709551616", V));
}

TEST(Args, ParseUnsignedFlagConsumesValueAndRangeChecks) {
  const char *Argv[] = {"tool", "--jobs", "8", "--memlat", "9999"};
  int I = 1;
  uint64_t V = 0;
  EXPECT_TRUE(support::parseUnsignedFlag(5, const_cast<char **>(Argv), I, 1,
                                         512, V));
  EXPECT_EQ(I, 2);
  EXPECT_EQ(V, 8u);
  I = 3;
  EXPECT_FALSE(support::parseUnsignedFlag(5, const_cast<char **>(Argv), I, 1,
                                          512, V))
      << "9999 is out of [1, 512]";
}

TEST(Args, ParseUnsignedFlagRejectsMissingValue) {
  const char *Argv[] = {"tool", "--jobs"};
  int I = 1;
  uint64_t V = 0;
  EXPECT_FALSE(
      support::parseUnsignedFlag(2, const_cast<char **>(Argv), I, 1, 512, V));
}

//===----------------------------------------------------------------------===//
// Hash: the values are a cross-process contract (support/Hash.h), so they
// are pinned, not just checked for consistency.
//===----------------------------------------------------------------------===//

namespace {

/// The byte at offset \p I of the golden inputs.
unsigned char goldenByte(size_t I) {
  return static_cast<unsigned char>(I * 167 + 13);
}

std::vector<unsigned char> goldenBytes(size_t Len) {
  std::vector<unsigned char> B(Len);
  for (size_t I = 0; I < Len; ++I)
    B[I] = goldenByte(I);
  return B;
}

/// hashBytes of the first N golden bytes, N = 0..65: every tail path
/// (the 8-, 4- and 1-byte steps) with and without the 32-byte lanes.
const uint64_t GoldenByLength[66] = {
    0xef46db3751d8e999ULL, 0x2078e1ad38ad738bULL, 0xd9c7bf9d2ba6b544ULL,
    0x634d95fc01a189cdULL, 0xeed340908a1ac6c6ULL, 0x342bd7a5f3e2edcdULL,
    0x7d0c8682db81c3eaULL, 0x0da493621d6dc898ULL, 0x76f916c7bb523126ULL,
    0x175d7bee83bd73b9ULL, 0xa8282d00af4ad47bULL, 0x8beae4d88d350b4bULL,
    0xfb52f89a1dc449d2ULL, 0x7e1a468bdd27b4d8ULL, 0x6977612789023e44ULL,
    0x4e1c333b057fb6a4ULL, 0x7bbeff67699312f6ULL, 0x5a63f300c4cb3d87ULL,
    0x1ef4c1cba2f885efULL, 0xf9b88f522f15b79bULL, 0xb497ddde8ca2de89ULL,
    0x83ad728c7ec3916cULL, 0x0badbd869953662eULL, 0x0884afd7d1fa0a16ULL,
    0x864bf0f760184516ULL, 0xd9d6c74383174389ULL, 0xf9097890f9c579c1ULL,
    0x061e9b25cddf387fULL, 0x407a0d8e5df705fcULL, 0x05acf6da6e5ff4b5ULL,
    0xc7d7b0aba49eea5fULL, 0x65c5feb01da7464dULL, 0x7665c921c9bf2ec7ULL,
    0xb5a9d9ef259ae821ULL, 0xae0425573ff47833ULL, 0xe0045f4586d4d91aULL,
    0xde4c0f568d54d497ULL, 0xc60344dcc647a515ULL, 0xec2b43f049eb7ec7ULL,
    0xe2148dbbc5ab4089ULL, 0xc94202b2b0886774ULL, 0x55f738550a208e0cULL,
    0xd30b02916fdecddfULL, 0xddaad9373cd92518ULL, 0x99597b95f6740623ULL,
    0x4e4237a872ced8e6ULL, 0x35bec731322dbf16ULL, 0xffb42101c210309eULL,
    0x487555383052a6b8ULL, 0x0f72d661fe1af016ULL, 0xa933907c97a3093cULL,
    0x11e2bf4d2c718b5dULL, 0x713dd26a80875bb8ULL, 0x1c12a4288b82e52cULL,
    0xfcf7d79acc103487ULL, 0x6e297f430d2b50c5ULL, 0x6e8a76d67ce79b64ULL,
    0x0c9629d011cf1646ULL, 0xf3a329277473d950ULL, 0x62753ff8371d1a48ULL,
    0x99286364d889ad3fULL, 0x529b3d71bc6ffee4ULL, 0x8cfcbe0a31be33ecULL,
    0xb0289cd9324034f0ULL, 0xfff2525c99bf2005ULL, 0x01fbd6d6ac20fbafULL,
};

} // namespace

TEST(Hash, GoldenValuesForEveryShortLength) {
  std::vector<unsigned char> B = goldenBytes(65);
  for (size_t Len = 0; Len <= 65; ++Len)
    EXPECT_EQ(support::hashBytes(B.data(), Len), GoldenByLength[Len])
        << "length " << Len;
}

TEST(Hash, ValueDoesNotDependOnAlignment) {
  // The same bytes at every start offset within a word hash the same.
  std::vector<unsigned char> Buf(65 + 8);
  for (size_t Off = 0; Off < 8; ++Off) {
    for (size_t I = 0; I < 65; ++I)
      Buf[Off + I] = goldenByte(I);
    for (size_t Len = 0; Len <= 65; ++Len)
      EXPECT_EQ(support::hashBytes(Buf.data() + Off, Len),
                GoldenByLength[Len])
          << "offset " << Off << ", length " << Len;
  }
}

TEST(Hash, GoldenValuesForALargeBuffer) {
  std::vector<unsigned char> B = goldenBytes(1 << 20);
  EXPECT_EQ(support::hashBytes(B.data(), B.size()), 0x51a26d03ff55b71dULL);
  EXPECT_EQ(support::hashBytes(B.data(), B.size(), 0x0123456789abcdefULL),
            0xe65624cf6ccf9dc8ULL);
}

TEST(Hash, StringsMatchTheReferenceXXH64) {
  // The published XXH64 values of these strings under seed 0.
  EXPECT_EQ(support::hashString(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(support::hashString("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(support::hashString("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(support::hashString("abc", 1), 0xbea9ca8199328908ULL);
  std::string S(reinterpret_cast<const char *>(goldenBytes(65).data()), 65);
  EXPECT_EQ(support::hashString(S), GoldenByLength[65]);
}

TEST(Hash, ValuesHashTheirLittleEndianBytes) {
  EXPECT_EQ(support::hashValue(0, support::HashSeed), 0x34c96acdcadb1bbbULL);
  EXPECT_EQ(support::hashValue(0x0102030405060708ULL, support::HashSeed),
            0xbab76e99c6604cb2ULL);
  EXPECT_EQ(support::hashValue(~0ULL, 0x9E3779B97F4A7C15ULL),
            0xab26e9f49dee09d0ULL);
  const unsigned char LE[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(support::hashValue(0x0102030405060708ULL, 77),
            support::hashBytes(LE, sizeof(LE), 77));
}

TEST(Hash, ServeCacheChainsSectionsWithoutAliasing) {
  // Moving bytes across a section boundary changes the key hash.
  core::ServeCache C(1 << 20);
  auto H = [&C](std::string Prog, std::string Prof, std::string Opts) {
    return C.hashOf(core::ServeKey{std::move(Prog), std::move(Prof),
                                   std::move(Opts)});
  };
  EXPECT_NE(H("ab", "c", ""), H("a", "bc", ""));
  EXPECT_NE(H("", "ab", "c"), H("", "a", "bc"));
  EXPECT_NE(H("ab", "", ""), H("a", "b", ""));
  EXPECT_NE(H("abc", "", ""), H("", "", "abc"));
  EXPECT_EQ(H("ab", "c", "d"), H("ab", "c", "d"));
}
