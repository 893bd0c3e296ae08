//===- support/Args.cpp - Checked CLI argument parsing --------------------===//

#include "support/Args.h"

#include <cstdio>

using namespace ssp;

bool support::parseUnsigned(std::string_view Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    unsigned Digit = static_cast<unsigned>(C - '0');
    if (V > (UINT64_MAX - Digit) / 10)
      return false; // Overflow.
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

bool support::parseUnsignedFlag(int Argc, char **Argv, int &I, uint64_t Min,
                                uint64_t Max, uint64_t &Out) {
  const char *Flag = Argv[I];
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "error: %s requires a value\n", Flag);
    return false;
  }
  const char *Text = Argv[++I];
  uint64_t V = 0;
  if (!parseUnsigned(Text, V)) {
    std::fprintf(stderr, "error: %s expects an unsigned integer, got '%s'\n",
                 Flag, Text);
    return false;
  }
  if (V < Min || V > Max) {
    std::fprintf(stderr,
                 "error: %s value %llu out of range [%llu, %llu]\n", Flag,
                 (unsigned long long)V, (unsigned long long)Min,
                 (unsigned long long)Max);
    return false;
  }
  Out = V;
  return true;
}
