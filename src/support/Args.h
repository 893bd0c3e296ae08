//===- support/Args.h - Checked CLI argument parsing ----------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict numeric flag parsing shared by the CLIs (ssp-sim, ssp-adapt,
/// ssp-verify) and the bench harness. Replaces the bare std::atoi calls
/// that silently turned `--memlat garbage` into 0: a malformed, missing,
/// overflowing or out-of-range value is reported on stderr and rejected
/// instead of being misread as a number.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SUPPORT_ARGS_H
#define SSP_SUPPORT_ARGS_H

#include <cstdint>
#include <string_view>

namespace ssp::support {

/// Parses \p Text as a full-string base-10 unsigned integer into \p Out.
/// Rejects empty strings, any non-digit character (including signs and
/// leading/trailing whitespace) and values that overflow uint64_t.
bool parseUnsigned(std::string_view Text, uint64_t &Out);

/// Parses the value of numeric flag Argv[I] (e.g. "--jobs"): consumes
/// Argv[I+1], advancing \p I, and range-checks against [\p Min, \p Max].
/// On a missing, malformed or out-of-range value, prints a one-line error
/// naming the flag to stderr and returns false (callers then print their
/// usage text and exit non-zero).
bool parseUnsignedFlag(int Argc, char **Argv, int &I, uint64_t Min,
                       uint64_t Max, uint64_t &Out);

} // namespace ssp::support

#endif // SSP_SUPPORT_ARGS_H
