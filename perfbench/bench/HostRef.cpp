//===- perfbench/bench/HostRef.cpp - The host-speed reference -------------===//
//
// A small fixed program the benchmark runs between ops to measure how fast
// the host is at that moment: an interpreter over a random 64K-instruction
// table with a 4-way set-associative tag model and a 4 MiB data array, so
// it stresses what the simulator does (dispatch, data-dependent branches,
// loads over a few MiB). It calls nothing in the ssp libraries, so a change
// to them never changes the reference; only the host does.
//
//===----------------------------------------------------------------------===//

#include "bench/Bench.h"

#include <algorithm>

using namespace perfbench;

namespace {

struct Inst {
  uint8_t Op, A, B, D;
  uint32_t Imm;
};

struct RefProgram {
  static constexpr size_t CodeSize = 1 << 16;
  static constexpr size_t DataWords = (4u << 20) / 8;
  static constexpr size_t Sets = 1 << 13, Ways = 4;

  std::vector<Inst> Code = std::vector<Inst>(CodeSize);
  std::vector<uint64_t> Data = std::vector<uint64_t>(DataWords);
  std::vector<uint64_t> Tags = std::vector<uint64_t>(Sets * Ways, ~0ull);
  std::vector<uint8_t> Victim = std::vector<uint8_t>(Sets);

  RefProgram() {
    uint64_t X = 88172645463325252ull;
    auto Next = [&X] {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      return X;
    };
    for (Inst &I : Code) {
      uint64_t R = Next();
      I.Op = static_cast<uint8_t>(R % 6);
      I.A = static_cast<uint8_t>((R >> 8) % 32);
      I.B = static_cast<uint8_t>((R >> 16) % 32);
      I.D = static_cast<uint8_t>((R >> 24) % 32);
      I.Imm = static_cast<uint32_t>(R >> 32);
    }
    for (uint64_t &W : Data)
      W = Next();
  }
};

volatile uint64_t Sink;

} // namespace

double perfbench::hostRefMs() {
  static RefProgram P;
  auto Start = std::chrono::steady_clock::now();
  uint64_t Regs[32];
  for (unsigned I = 0; I < 32; ++I)
    Regs[I] = I * 0x9E3779B97F4A7C15ull;
  uint64_t Pc = 0, Hits = 0;
  for (unsigned Step = 0; Step < HostRefSteps; ++Step) {
    const Inst &I = P.Code[Pc];
    uint64_t A = Regs[I.A], B = Regs[I.B];
    switch (I.Op) {
    case 0:
      Regs[I.D] = A + B + I.Imm;
      ++Pc;
      break;
    case 1:
      Regs[I.D] = A * (B | 1);
      ++Pc;
      break;
    case 2:
    case 3: {
      uint64_t Addr = (A + I.Imm) & (RefProgram::DataWords - 1);
      uint64_t Line = Addr >> 3, Set = Line & (RefProgram::Sets - 1);
      uint64_t *T = &P.Tags[Set * RefProgram::Ways];
      unsigned W = 0;
      while (W < RefProgram::Ways && T[W] != Line)
        ++W;
      if (W < RefProgram::Ways) {
        ++Hits;
      } else {
        W = P.Victim[Set];
        T[W] = Line;
        P.Victim[Set] = static_cast<uint8_t>((W + 1) % RefProgram::Ways);
      }
      if (I.Op == 2)
        Regs[I.D] = P.Data[Addr];
      else
        P.Data[Addr] = B;
      ++Pc;
      break;
    }
    case 4:
      Pc += (A & 1) ? 1 + (I.Imm & 15) : 1;
      break;
    default:
      Regs[I.D] = (A >> 3) ^ (B << 7) ^ Hits;
      ++Pc;
      break;
    }
    Pc &= RefProgram::CodeSize - 1;
  }
  Sink = Regs[0] + Hits;
  return msSince(Start);
}

HostSpeed::HostSpeed(double EveryMs) : EveryMs(EveryMs) {
  hostRefMs(); // Builds the reference program and warms it.
  sample();
}

void HostSpeed::sample() {
  Samples.push_back(hostRefMs());
  Last = std::chrono::steady_clock::now();
}

void HostSpeed::maybeSample() {
  if (msSince(Last) >= EveryMs)
    sample();
}

double HostSpeed::factor() const {
  return median(Samples) / HostRefNominalMs;
}
