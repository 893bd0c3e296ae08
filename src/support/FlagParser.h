//===- support/FlagParser.h - Declarative CLI flag parsing ----------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative flag parser shared by the tools and bench binaries,
/// replacing the hand-rolled strcmp loop each of them used to carry. Flags
/// are registered against references; parse() walks argv once, fills them
/// in, collects positional arguments, and reports the first malformed or
/// unknown flag on stderr (callers then print their usage text and exit).
///
/// Numeric values go through support::parseUnsigned, so the strictness of
/// the checked parsers (no signs, no whitespace, no overflow) is uniform
/// across every binary. Four flag shapes cover the whole CLI surface:
///
///   P.flag("--ooo", Ooo);                     presence -> bool
///   P.flag("--jobs", Jobs, 0, 512);           `--jobs N` -> integer
///   P.flag("--trace", TracePath);             `--trace FILE` -> C string
///   P.flagEq("--sample", [&](const char *V) { ... });
///                                             `--name` or `--name=VALUE`
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SUPPORT_FLAGPARSER_H
#define SSP_SUPPORT_FLAGPARSER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ssp::support {

class FlagParser {
public:
  FlagParser(int Argc, char **Argv) : Argc(Argc), Argv(Argv) {}

  /// Presence flag: `--name` sets \p Out to true.
  FlagParser &flag(const char *Name, bool &Out);

  /// Integer flag: `--name N` with N in [\p Min, \p Max]. Leave the
  /// reference at its default before parse(); it is only written when the
  /// flag appears.
  FlagParser &flag(const char *Name, unsigned &Out, uint64_t Min,
                   uint64_t Max);
  FlagParser &flag(const char *Name, uint64_t &Out, uint64_t Min,
                   uint64_t Max);

  /// String flag: `--name VALUE` stores the argv pointer.
  FlagParser &flag(const char *Name, const char *&Out);

  /// Equals-form flag: `--name` invokes \p Fn with nullptr, `--name=VALUE`
  /// with the text after '='. \p Fn returns false to reject the value
  /// (parse() then fails after printing a one-line error).
  FlagParser &flagEq(const char *Name,
                     std::function<bool(const char *Value)> Fn);

  /// Walks argv. Non-flag arguments are appended to \p Positional when
  /// provided and rejected otherwise. Returns false on the first unknown
  /// flag or malformed value (diagnostic already printed to stderr).
  bool parse(std::vector<std::string> *Positional = nullptr);

private:
  struct Spec {
    enum Kind { Bool, Uint, Str, Eq } K;
    const char *Name;
    bool *B = nullptr;
    unsigned *U32 = nullptr;
    uint64_t *U64 = nullptr;
    const char **S = nullptr;
    uint64_t Min = 0, Max = 0;
    std::function<bool(const char *)> Fn;
  };

  int Argc;
  char **Argv;
  std::vector<Spec> Specs;
};

} // namespace ssp::support

#endif // SSP_SUPPORT_FLAGPARSER_H
