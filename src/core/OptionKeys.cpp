//===- core/OptionKeys.cpp - The ToolOptions key table --------------------===//

#include "core/OptionKeys.h"

#include "core/Feedback.h"
#include "support/Args.h"
#include "support/FlagParser.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <variant>

using namespace ssp;
using namespace ssp::core;

namespace {

/// One row of the key table. The field's type picks the value kind:
/// bool takes `0/1/true/false`, an integer field takes a base-10 integer
/// in [Min, Max], and a double field takes a fraction in [0, 1].
struct OptionKey {
  using FieldRef = std::variant<bool *, unsigned *, uint64_t *, double *>;

  const char *Name;
  FieldRef (*Field)(ToolOptions &);
  uint64_t Min = 0, Max = UINT64_MAX; ///< Integer fields only.
  /// The key feeds AnalysisCache construction (the warm-memo key).
  bool Analysis = false;
};

#define FIELD(F) [](ToolOptions &T) -> OptionKey::FieldRef { return &T.F; }
constexpr uint64_t Unbounded = UINT64_MAX;
constexpr bool Analysis = true;

// Sorted by name: the canonical rendering order. Feedback knobs are keys
// although adapt() ignores them: with feedback-rounds > 0 the served
// binary is the loop's fixpoint.
const OptionKey Keys[] = {
    {"chaining", FIELD(EnableChaining)},
    {"cond-prediction", FIELD(EnableConditionPrediction), 0, 0, Analysis},
    {"coverage", FIELD(DelinquentCoverage)},
    {"cutoff", FIELD(ReducedMissCutoff)},
    {"feedback-deepen-late", FIELD(Feedback.DeepenLateMax)},
    {"feedback-drop-max", FIELD(Feedback.DropUsefulMax)},
    {"feedback-hoist-late", FIELD(Feedback.HoistLateMin)},
    {"feedback-min-sample", FIELD(Feedback.MinSample)},
    {"feedback-rounds", FIELD(FeedbackRounds), 0, 64},
    {"feedback-throttle-evicted", FIELD(Feedback.ThrottleEvictedMin)},
    {"inner-unroll", FIELD(InnerUnroll), 1, 64},
    {"loop-rotation", FIELD(EnableLoopRotation), 0, 0, Analysis},
    {"max-depth", FIELD(MaxRegionDepth), 1, 64},
    {"max-loads", FIELD(MaxDelinquentLoads), 1, 4096},
    {"min-slack", FIELD(MinSlackCycles)},
    {"reject-store-dep", FIELD(Slicing.RejectStoreDependent), 0, 0, Analysis},
    {"restart-triggers", FIELD(EnableRestartTriggers)},
    {"slice-max", FIELD(Slicing.MaxSize), 1, 4096, Analysis},
    {"spec-deps", FIELD(EnableSpecDeps), 0, 0, Analysis},
    {"spec-threshold", FIELD(SpecDepThreshold), 0, 0, Analysis},
    {"speculative", FIELD(Slicing.Speculative), 0, 0, Analysis},
    {"streams", FIELD(EnableStreams)},
    {"trip-budget", FIELD(MaxTripBudget), 1, Unbounded},
};

#undef FIELD

/// The accepted-value phrase of a row's error message.
std::string wanted(const OptionKey &K, OptionKey::FieldRef F) {
  if (std::holds_alternative<bool *>(F))
    return "0/1";
  if (std::holds_alternative<double *>(F))
    return "a fraction in [0, 1]";
  if (K.Max == Unbounded)
    return K.Min == 0 ? "an unsigned integer" : "a positive integer";
  return "an integer in [" + std::to_string(K.Min) + ", " +
         std::to_string(K.Max) + "]";
}

/// Parses \p V into \p *P per the field's kind; false leaves it unchanged.
template <typename T>
bool parseInto(T *P, const OptionKey &K, const std::string &V) {
  if constexpr (std::is_same_v<T, bool>) {
    if (V != "1" && V != "true" && V != "0" && V != "false")
      return false;
    *P = V == "1" || V == "true";
  } else if constexpr (std::is_same_v<T, double>) {
    if (V.empty())
      return false;
    char *End = nullptr;
    double D = std::strtod(V.c_str(), &End);
    if (End != V.c_str() + V.size() || !std::isfinite(D) || D < 0.0 ||
        D > 1.0)
      return false;
    *P = D;
  } else {
    uint64_t U = 0;
    if (!support::parseUnsigned(V, U) || U < K.Min || U > K.Max)
      return false;
    *P = static_cast<T>(U);
  }
  return true;
}

/// Parses \p Value into \p Field, a member of \p TO, through its row.
template <typename T>
bool setField(ToolOptions &TO, T &Field, const std::string &Value) {
  for (const OptionKey &K : Keys) {
    OptionKey::FieldRef F = K.Field(TO);
    if (T *const *P = std::get_if<T *>(&F); P && *P == &Field)
      return parseInto(*P, K, Value);
  }
  return false;
}

void appendRow(std::string &S, const OptionKey &K, const ToolOptions &TO) {
  S += K.Name;
  S += '=';
  // Read-only use of the table's mutable field accessor.
  std::visit(
      [&S](auto *P) {
        using T = std::remove_pointer_t<decltype(P)>;
        if constexpr (std::is_same_v<T, bool>) {
          S += *P ? '1' : '0';
        } else if constexpr (std::is_same_v<T, double>) {
          char Buf[32];
          std::snprintf(Buf, sizeof(Buf), "%.17g", *P);
          S += Buf;
        } else {
          S += std::to_string(*P);
        }
      },
      K.Field(const_cast<ToolOptions &>(TO)));
  S += '\n';
}

} // namespace

bool core::setOption(ToolOptions &TO, const std::string &Key,
                     const std::string &Value, std::string &Msg) {
  const OptionKey *K =
      std::find_if(std::begin(Keys), std::end(Keys),
                   [&](const OptionKey &R) { return Key == R.Name; });
  if (K == std::end(Keys)) {
    Msg = "option " + Key + ": unknown option";
    return false;
  }
  OptionKey::FieldRef F = K->Field(TO);
  if (std::visit([&](auto *P) { return parseInto(P, *K, Value); }, F))
    return true;
  Msg = "option " + Key + ": expected " + wanted(*K, F) + ", got '" + Value +
        "'";
  return false;
}

std::string core::renderOptions(const ToolOptions &TO) {
  std::string S;
  for (const OptionKey &K : Keys)
    appendRow(S, K, TO);
  return S;
}

std::string core::renderAnalysisOptions(const ToolOptions &TO) {
  std::string S;
  for (const OptionKey &K : Keys)
    if (K.Analysis)
      appendRow(S, K, TO);
  return S;
}

void core::addToolFlags(support::FlagParser &P, ToolOptions &TO) {
  P.flagEq("--no-chaining",
           [&TO](const char *V) {
             return !V && setField(TO, TO.EnableChaining, "0");
           })
      .flagEq("--spec-deps",
              [&TO](const char *V) {
                return setField(TO, TO.EnableSpecDeps, "1") &&
                       (!V || setField(TO, TO.SpecDepThreshold, V));
              })
      .flagEq("--streams",
              [&TO](const char *V) {
                return !V && setField(TO, TO.EnableStreams, "1");
              })
      .flagEq("--feedback", [&TO](const char *V) {
        return setField(TO, TO.FeedbackRounds,
                        V ? V : std::to_string(DefaultFeedbackRounds));
      });
}
