//===- scripts/sim_ab/main.cpp - In-process simulator A/B harness ---------===//
//
// Runs every (program, operation) of perfbench's `pipeline` set on two
// revisions linked into this one binary, one of them built with namespace
// `ssp` renamed to `sspBase` (--renamed says which), alternating which side
// goes first. Per (program, kind) it keeps the minimum over --reps runs of
// each side and the paired ratio: the median over repetitions of work/base
// within one back-to-back pair, taken separately over the pairs each side
// led and combined by geometric mean. Host drift moves both sides of a pair
// alike, so steps of a few percent are readable here that separate
// processes would hide; the paired ratio also shrugs off a slow spell that
// spoils one side's minimum. Exits 1 when a run stores a wrong checksum,
// or its counter digest or checksum differs between the sides or between
// repetitions.
//
//   sim_ab --renamed base|work [--reps N] --raw FILE
//   sim_ab --combine FILE FILE
//   sim_ab --renamed base [--reps N] --profile KIND
//
// The results go to FILE for --combine, which prints each row
// as the geometric mean of the two files' ratios: sim_ab.sh runs one
// binary per namespace assignment, so a bias toward one assignment
// (code placement) cancels. --profile runs only the `ssp` side's KIND
// under an ITIMER_PROF program-counter sampler and prints the top
// functions and source lines, symbolized with binutils addr2line.
// Built and run by sim_ab.sh.
//
//===----------------------------------------------------------------------===//

#include "SimAb.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <link.h>
#include <map>
#include <string>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#include <vector>

namespace sspBase {
/// The renamed revision's side: Side.cpp built with `ssp` renamed.
std::unique_ptr<simab::Side> makeSimAbSide();
} // namespace sspBase

namespace {

const char *const KindName[simab::NumKinds] = {
    "base in-order", "SSP in-order", "base OOO", "SSP OOO",
    "memory image",  "profile"};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sim_ab --renamed base|work [--reps N] --raw FILE\n"
               "       sim_ab --combine FILE FILE\n"
               "       sim_ab --renamed base [--reps N] --profile KIND\n"
               "  N in 1..100; KIND in 0..5 (base in-order, SSP in-order,\n"
               "  base OOO, SSP OOO, memory image, profile)\n");
  std::exit(2);
}

/// One (program, kind) measured on both sides by one binary.
struct Cell {
  std::string Program;
  unsigned Kind = 0;
  double Ms[2] = {1e300, 1e300}; ///< Minimum per side: base, work.
  double Paired = 0;             ///< Median of work/base over the pairs.
  /// The median over the pairs each side led, base first and work first
  /// (0 if there was none): their spread shows the order effect.
  double PairedLed[2] = {0, 0};
  uint64_t Digest[2] = {0, 0}, Checksum[2] = {0, 0};
};

/// All cells of one binary, program-major, NumKinds per program.
using Measurement = std::vector<Cell>;

/// A row's totals over the kinds in [KBegin, KEnd), each kind's times
/// scaled by its count in the row (a pipeline op builds four images).
struct RowTotals {
  double Base = 0, Work = 0, Paired = 0;
  double ratio() const { return Work / Base; }
  double paired() const { return Paired / Base; }
};

RowTotals rowOf(const Measurement &M, unsigned KBegin, unsigned KEnd) {
  RowTotals T;
  for (const Cell &C : M) {
    if (C.Kind < KBegin || C.Kind >= KEnd)
      continue;
    double N = C.Kind == simab::Image && KEnd - KBegin > 1 ? 4 : 1;
    T.Base += N * C.Ms[0];
    T.Work += N * C.Ms[1];
    T.Paired += N * C.Ms[0] * C.Paired;
  }
  return T;
}

/// The rows every report prints: one per kind, then the 40 simulations
/// and the whole pipeline op.
template <typename PrintRow> void forEachRow(size_t NumPrograms, PrintRow P) {
  for (unsigned K = 0; K < simab::NumKinds; ++K)
    P(KindName[K], K, K + 1);
  char Label[64];
  std::snprintf(Label, sizeof(Label), "all %zu simulations",
                4 * NumPrograms);
  P(Label, simab::BaseIO, simab::Image);
  P("pipeline op (4 sims+4 images+prof)", simab::BaseIO, simab::NumKinds);
}

/// Runs both sides, alternating which goes first, and returns the cells.
/// \p Sides is {base, work}. Counts failed checks in \p Mismatches.
Measurement measure(simab::Side *Sides[2], unsigned Reps,
                    unsigned &Mismatches) {
  const size_t NumPrograms = Sides[0]->numPrograms();
  Measurement M(NumPrograms * simab::NumKinds);
  // Each (program, kind)'s work/base ratios, split by which side ran
  // first in the pair: [0] base first, [1] work first.
  std::vector<std::vector<double>> Pairs[2];
  Pairs[0].resize(M.size());
  Pairs[1].resize(M.size());
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (size_t P = 0; P < NumPrograms; ++P)
      for (unsigned K = 0; K < simab::NumKinds; ++K) {
        Cell &C = M[P * simab::NumKinds + K];
        C.Program = Sides[0]->name(P);
        C.Kind = K;
        unsigned First = (Rep + P + K) % 2;
        double Ms[2];
        for (unsigned S : {First, 1 - First}) {
          simab::Result R = Sides[S]->run(P, static_cast<simab::Kind>(K));
          Ms[S] = R.Ms;
          const char *SideName = S ? "work" : "base";
          if (!R.ChecksumOk) {
            std::fprintf(stderr, "sim_ab: %s %s: %s side stored a wrong "
                         "checksum\n", C.Program.c_str(), KindName[K],
                         SideName);
            ++Mismatches;
          }
          if (Rep > 0 &&
              (R.Digest != C.Digest[S] || R.Checksum != C.Checksum[S])) {
            std::fprintf(stderr, "sim_ab: %s %s: %s side differs between "
                         "repetitions\n", C.Program.c_str(), KindName[K],
                         SideName);
            ++Mismatches;
          }
          C.Digest[S] = R.Digest;
          C.Checksum[S] = R.Checksum;
          C.Ms[S] = std::min(C.Ms[S], R.Ms);
        }
        Pairs[First][P * simab::NumKinds + K].push_back(Ms[1] / Ms[0]);
        if (Rep == 0 &&
            (C.Digest[0] != C.Digest[1] || C.Checksum[0] != C.Checksum[1])) {
          std::fprintf(stderr, "sim_ab: %s %s: digest %016" PRIx64
                       "/%016" PRIx64 ", checksum %" PRIu64 "/%" PRIu64
                       " (base/work)\n",
                       C.Program.c_str(), KindName[K], C.Digest[0],
                       C.Digest[1], C.Checksum[0], C.Checksum[1]);
          ++Mismatches;
        }
      }
  // The side that runs second in a pair tends to run faster (it reuses
  // what the first one freed), so an order that holds in more pairs of one
  // cell than the other biases its median. Each order gets its own median
  // and the cell the geometric mean of the two.
  auto Median = [](std::vector<double> &R) {
    std::sort(R.begin(), R.end());
    size_t H = R.size() / 2;
    return R.size() % 2 ? R[H] : std::sqrt(R[H - 1] * R[H]);
  };
  for (size_t I = 0; I < M.size(); ++I) {
    Cell &C = M[I];
    for (unsigned F = 0; F < 2; ++F)
      C.PairedLed[F] = Pairs[F][I].empty() ? 0 : Median(Pairs[F][I]);
    C.Paired = !C.PairedLed[0]   ? C.PairedLed[1]
               : !C.PairedLed[1] ? C.PairedLed[0]
                                 : std::sqrt(C.PairedLed[0] * C.PairedLed[1]);
  }
  return M;
}

void writeRaw(const char *Path, const Measurement &M, unsigned Reps) {
  FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::perror(Path);
    std::exit(1);
  }
  std::fprintf(F, "sim_ab-raw 1 reps %u\n", Reps);
  for (const Cell &C : M)
    std::fprintf(F, "%s %u %.6f %.6f %.9f %016" PRIx64 " %016" PRIx64
                 " %" PRIu64 " %" PRIu64 "\n",
                 C.Program.c_str(), C.Kind, C.Ms[0], C.Ms[1], C.Paired,
                 C.Digest[0], C.Digest[1], C.Checksum[0], C.Checksum[1]);
  std::fclose(F);
}

Measurement readRaw(const char *Path, unsigned &Reps) {
  FILE *F = std::fopen(Path, "r");
  if (!F) {
    std::perror(Path);
    std::exit(1);
  }
  Measurement M;
  if (std::fscanf(F, "sim_ab-raw 1 reps %u", &Reps) != 1) {
    std::fprintf(stderr, "sim_ab: %s: not a raw result file\n", Path);
    std::exit(1);
  }
  char Name[256];
  Cell C;
  while (std::fscanf(F, "%255s %u %lf %lf %lf %" SCNx64 " %" SCNx64
                     " %" SCNu64 " %" SCNu64,
                     Name, &C.Kind, &C.Ms[0], &C.Ms[1], &C.Paired,
                     &C.Digest[0], &C.Digest[1], &C.Checksum[0],
                     &C.Checksum[1]) == 9) {
    C.Program = Name;
    M.push_back(C);
  }
  std::fclose(F);
  if (M.empty() || M.size() % simab::NumKinds != 0) {
    std::fprintf(stderr, "sim_ab: %s: truncated raw result file\n", Path);
    std::exit(1);
  }
  return M;
}

/// Prints the report of two binaries, \p A with the work side in
/// namespace `ssp` and \p B with it in `sspBase`.
int combine(const char *PathA, const char *PathB) {
  unsigned RepsA = 0, RepsB = 0;
  Measurement A = readRaw(PathA, RepsA), B = readRaw(PathB, RepsB);
  if (A.size() != B.size()) {
    std::fprintf(stderr, "sim_ab: the two binaries ran different suites\n");
    return 1;
  }
  unsigned Mismatches = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    const Cell &X = A[I], &Y = B[I];
    for (unsigned S = 0; S < 2; ++S)
      if (X.Program != Y.Program || X.Kind != Y.Kind ||
          X.Digest[S] != Y.Digest[S] || X.Checksum[S] != Y.Checksum[S]) {
        std::fprintf(stderr, "sim_ab: %s %s: the %s side differs between "
                     "the two namespace assignments\n", X.Program.c_str(),
                     KindName[X.Kind], S ? "work" : "base");
        ++Mismatches;
      }
  }
  const size_t NumPrograms = A.size() / simab::NumKinds;
  std::printf("min of %u rep(s) per binary over %zu programs, ms (mean of "
              "the two binaries);\nratios are geometric means over work "
              "as `ssp` (A) and work as `sspBase` (B)\n",
              RepsA, NumPrograms);
  std::printf("%-34s %9s %9s %8s %8s %8s %8s\n", "kind", "base", "work",
              "ratio", "paired", "pairedA", "pairedB");
  forEachRow(NumPrograms, [&](const char *Name, unsigned KB, unsigned KE) {
    RowTotals TA = rowOf(A, KB, KE), TB = rowOf(B, KB, KE);
    std::printf("%-34s %9.1f %9.1f %7.3fx %7.3fx %7.3fx %7.3fx\n", Name,
                (TA.Base + TB.Base) / 2, (TA.Work + TB.Work) / 2,
                std::sqrt(TA.ratio() * TB.ratio()),
                std::sqrt(TA.paired() * TB.paired()), TA.paired(),
                TB.paired());
  });
  if (Mismatches) {
    std::printf("FAILED: %u check(s) failed\n", Mismatches);
    return 1;
  }
  std::printf("identical: every SimStats digest and checksum matches\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// Program-counter sampling
//===----------------------------------------------------------------------===//

constexpr size_t MaxSamples = 1 << 20;
uintptr_t SampleBuf[MaxSamples];
volatile size_t NumSamples = 0;

void onProfTick(int, siginfo_t *, void *Uc) {
  const auto *U = static_cast<const ucontext_t *>(Uc);
#if defined(__x86_64__)
  uintptr_t PC = static_cast<uintptr_t>(U->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  uintptr_t PC = static_cast<uintptr_t>(U->uc_mcontext.pc);
#else
#error "sim_ab --profile: no program counter for this architecture"
#endif
  size_t N = NumSamples;
  if (N < MaxSamples) {
    SampleBuf[N] = PC;
    NumSamples = N + 1;
  }
}

/// The executable's load address (0 unless it is position-independent)
/// and the extent of its loaded segments.
struct ExeImage {
  uintptr_t Base = 0, Begin = UINTPTR_MAX, End = 0;
  bool contains(uintptr_t PC) const { return PC >= Begin && PC < End; }
};

ExeImage exeImage() {
  ExeImage Img;
  dl_iterate_phdr(
      [](dl_phdr_info *Info, size_t, void *Out) {
        auto &I = *static_cast<ExeImage *>(Out);
        I.Base = Info->dlpi_addr;
        for (unsigned H = 0; H < Info->dlpi_phnum; ++H)
          if (Info->dlpi_phdr[H].p_type == PT_LOAD) {
            uintptr_t A = Info->dlpi_addr + Info->dlpi_phdr[H].p_vaddr;
            I.Begin = std::min(I.Begin, A);
            I.End = std::max(I.End, A + Info->dlpi_phdr[H].p_memsz);
          }
        return 1; // The first object is the executable.
      },
      &Img);
  return Img;
}

/// "memset (libc.so.6)" for a sample outside the executable.
std::string sharedObjectFrame(uintptr_t PC) {
  Dl_info Info;
  if (!dladdr(reinterpret_cast<void *>(PC), &Info) || !Info.dli_fname)
    return "(unknown object)";
  std::string Obj = Info.dli_fname;
  Obj = Obj.substr(Obj.rfind('/') + 1);
  return std::string(Info.dli_sname ? Info.dli_sname : "??") + " (" + Obj +
         ")";
}

/// "src/sim/Simulator.cpp:757" for a path under a source tree.
std::string shortLocation(const std::string &FileLine) {
  size_t Src = FileLine.rfind("/src/");
  if (Src != std::string::npos)
    return FileLine.substr(Src + 1);
  size_t Slash = FileLine.rfind('/');
  return Slash == std::string::npos ? FileLine : FileLine.substr(Slash + 1);
}

void printTop(const char *Title, const std::map<std::string, size_t> &Counts,
              size_t Total, size_t Limit) {
  std::vector<std::pair<size_t, std::string>> Rows;
  for (const auto &[Key, N] : Counts)
    Rows.push_back({N, Key});
  std::sort(Rows.begin(), Rows.end(), [](const auto &X, const auto &Y) {
    return X.first != Y.first ? X.first > Y.first : X.second < Y.second;
  });
  std::printf("\n%s\n", Title);
  for (size_t I = 0; I < Rows.size() && I < Limit; ++I)
    std::printf("%6.2f%%  %s\n", 100.0 * static_cast<double>(Rows[I].first) /
                                     static_cast<double>(Total),
                Rows[I].second.c_str());
}

int profile(simab::Side &Side, unsigned Kind, unsigned Reps) {
  struct sigaction SA = {};
  SA.sa_sigaction = onProfTick;
  SA.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGPROF, &SA, nullptr);
  itimerval Tick = {{0, 1000}, {0, 1000}}; // 1 ms of CPU time.
  unsigned BadChecksums = 0;
  double Ms = 0;
  setitimer(ITIMER_PROF, &Tick, nullptr);
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (size_t P = 0; P < Side.numPrograms(); ++P) {
      simab::Result R = Side.run(P, static_cast<simab::Kind>(Kind));
      Ms += R.Ms;
      BadChecksums += !R.ChecksumOk;
    }
  itimerval Off = {};
  setitimer(ITIMER_PROF, &Off, nullptr);
  const size_t Total = NumSamples;
  std::printf("profile of %s, %u rep(s) over %zu programs: %.1f ms, "
              "%zu samples\n",
              KindName[Kind], Reps, Side.numPrograms(), Ms, Total);
  if (BadChecksums) {
    std::printf("FAILED: %u run(s) stored a wrong checksum\n", BadChecksums);
    return 1;
  }
  if (Total == 0)
    return 0;

  // Symbolize each distinct address of the executable once: `-a` heads
  // each address's frames, and `-i` lists them innermost (inlined) first.
  // Samples in shared objects are named by their nearest dynamic symbol.
  const ExeImage Img = exeImage();
  std::map<uintptr_t, size_t> ByAddr;
  std::map<std::string, size_t> Funcs, Lines;
  for (size_t I = 0; I < Total; ++I) {
    if (Img.contains(SampleBuf[I])) {
      ++ByAddr[SampleBuf[I] - Img.Base];
      continue;
    }
    std::string Frame = sharedObjectFrame(SampleBuf[I]);
    ++Funcs[Frame];
    ++Lines[Frame];
  }
  char Exe[4096];
  ssize_t Len = readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  char AddrFile[] = "/tmp/sim_ab_addrs.XXXXXX";
  int Fd = mkstemp(AddrFile);
  if (Len <= 0 || Fd < 0) {
    std::fprintf(stderr, "sim_ab: cannot prepare symbolization\n");
    return 1;
  }
  Exe[Len] = '\0';
  FILE *AF = fdopen(Fd, "w");
  for (const auto &[Addr, N] : ByAddr)
    std::fprintf(AF, "%#" PRIxPTR "\n", Addr);
  std::fclose(AF);
  std::string Cmd = std::string("addr2line -a -f -i -C -e '") + Exe +
                    "' < " + AddrFile;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe) {
    std::fprintf(stderr, "sim_ab: cannot run addr2line\n");
    unlink(AddrFile);
    return 1;
  }

  // Functions are charged by the outermost frame (the symbol the sampled
  // code belongs to); lines by the innermost frame in the project's
  // sources, so a library call inlined into a loop counts at its call.
  auto Flush = [&](size_t N, const std::vector<std::string> &Frames) {
    if (N == 0 || Frames.size() < 2)
      return;
    Funcs[Frames[Frames.size() - 2]] += N;
    size_t Pick = 0;
    for (size_t I = 0; I + 1 < Frames.size(); I += 2)
      if (Frames[I + 1].find("/src/") != std::string::npos) {
        Pick = I;
        break;
      }
    Lines[shortLocation(Frames[Pick + 1]) + "  " + Frames[Pick]] += N;
  };
  char Line[8192];
  size_t Count = 0;
  std::vector<std::string> Frames;
  while (std::fgets(Line, sizeof(Line), Pipe)) {
    std::string S(Line);
    while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
      S.pop_back();
    if (S.rfind("0x", 0) == 0) {
      Flush(Count, Frames);
      Frames.clear();
      auto It = ByAddr.find(static_cast<uintptr_t>(
          std::strtoull(S.c_str(), nullptr, 16)));
      Count = It == ByAddr.end() ? 0 : It->second;
      continue;
    }
    std::string::size_type Disc = S.find(" (discriminator");
    Frames.push_back(Disc == std::string::npos ? S : S.substr(0, Disc));
  }
  Flush(Count, Frames);
  pclose(Pipe);
  unlink(AddrFile);
  printTop("top functions", Funcs, Total, 25);
  printTop("top source lines", Lines, Total, 40);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 3;
  int Renamed = -1; // Which side is sspBase: 0 base, 1 work.
  int ProfileKind = -1;
  const char *RawPath = nullptr;
  auto Number = [](const char *S, long Lo, long Hi) {
    char *End = nullptr;
    long N = std::strtol(S, &End, 10);
    if (*S == '\0' || *End != '\0' || N < Lo || N > Hi)
      usage();
    return N;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--combine" && Argc == 4 && I == 1)
      return combine(Argv[2], Argv[3]);
    if (I + 1 == Argc)
      usage();
    const char *Val = Argv[++I];
    if (Arg == "--reps")
      Reps = static_cast<unsigned>(Number(Val, 1, 100));
    else if (Arg == "--profile")
      ProfileKind = static_cast<int>(Number(Val, 0, simab::NumKinds - 1));
    else if (Arg == "--raw")
      RawPath = Val;
    else if (Arg == "--renamed" && std::strcmp(Val, "base") == 0)
      Renamed = 0;
    else if (Arg == "--renamed" && std::strcmp(Val, "work") == 0)
      Renamed = 1;
    else
      usage();
  }
  if (Renamed < 0 || (ProfileKind >= 0) == (RawPath != nullptr) ||
      (ProfileKind >= 0 && Renamed != 0))
    usage();

  if (ProfileKind >= 0) {
    std::unique_ptr<simab::Side> Work = ssp::makeSimAbSide();
    return profile(*Work, static_cast<unsigned>(ProfileKind), Reps);
  }

  std::unique_ptr<simab::Side> Plain = ssp::makeSimAbSide(),
                               Other = sspBase::makeSimAbSide();
  if (Plain->numPrograms() != Other->numPrograms()) {
    std::fprintf(stderr, "sim_ab: the revisions build different suites\n");
    return 1;
  }
  simab::Side *Sides[2] = {Renamed == 0 ? Other.get() : Plain.get(),
                           Renamed == 0 ? Plain.get() : Other.get()};
  unsigned Mismatches = 0;
  Measurement M = measure(Sides, Reps, Mismatches);
  const size_t NumPrograms = Plain->numPrograms();
  writeRaw(RawPath, M, Reps);
  RowTotals T = rowOf(M, simab::BaseIO, simab::Image);
  // The same row over the pairs base led and the pairs work led, over the
  // cells that had both.
  double Led[2] = {0, 0}, Weight = 0;
  for (const Cell &C : M)
    if (C.Kind < simab::Image && C.PairedLed[0] && C.PairedLed[1]) {
      Weight += C.Ms[0];
      for (unsigned F = 0; F < 2; ++F)
        Led[F] += C.Ms[0] * C.PairedLed[F];
    }
  std::fprintf(stderr, "sim_ab: work as `%s`: all %zu simulations %.3fx "
               "paired (%.3fx where base ran first, %.3fx where work did)\n",
               Renamed == 0 ? "ssp" : "sspBase", 4 * NumPrograms,
               T.paired(), Weight ? Led[0] / Weight : 0,
               Weight ? Led[1] / Weight : 0);
  if (Mismatches) {
    std::printf("FAILED: %u check(s) failed\n", Mismatches);
    return 1;
  }
  return 0;
}
