//===- sim/Sampling.h - Sampled-simulation interval plan ------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval plan for two-level sampled simulation (SMARTS-style
/// systematic sampling): the run alternates a detailed interval (the full
/// timing pipelines), a functional fast-forward interval (architectural
/// state only) and a functional-warming interval (architectural state plus
/// cache/TLB fills and branch-predictor training) so the next detailed
/// interval starts from warm microarchitectural state. Interval lengths
/// are measured in retired main-thread instructions — the one clock that
/// is identical across the levels. Whole-run statistics are extrapolated
/// from the detailed intervals; see DESIGN.md "Sampled simulation".
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_SAMPLING_H
#define SSP_SIM_SAMPLING_H

#include <cstdint>
#include <string>

namespace ssp::sim {

/// Interval lengths for one sampling period, in main-thread instructions.
/// Each period runs DetailInsts detailed-and-measured, then
/// FastForwardInsts at the fast functional level, then WarmupInsts at the
/// functional-warming level, then RampInsts detailed-but-unmeasured
/// (immediately before the next measured interval). Ordering the detail
/// interval first means the run starts detailed — cold-start exact — and
/// a program shorter than one detail interval is simulated entirely in
/// detail.
///
/// The ramp exists because functional warming cannot reproduce state the
/// detailed level creates as a side effect of *timing*: pipeline
/// occupancy, lines in flight in the fill buffer, and — on SSP-enhanced
/// binaries — the population of speculative threads (triggers fire only
/// in the detailed level). Measuring from the first post-warm cycle would
/// charge every interval a systematic ramp-up transient; running a short
/// detailed prefix outside the measurement window lets the machine reach
/// steady state first.
struct SamplingPlan {
  uint64_t WarmupInsts = 0;
  uint64_t DetailInsts = 0;
  uint64_t FastForwardInsts = 0;
  uint64_t RampInsts = 0;

  /// A plan with no functional instructions is the plain detailed
  /// simulator: run() takes the exact unsampled path, so a 100%-detail
  /// plan is bit-identical to no plan by construction.
  bool enabled() const { return WarmupInsts > 0 || FastForwardInsts > 0; }

  /// Fraction of each period simulated in detail (measured or ramp).
  double detailFraction() const {
    uint64_t Period =
        WarmupInsts + DetailInsts + FastForwardInsts + RampInsts;
    return Period == 0 ? 1.0
                       : static_cast<double>(DetailInsts + RampInsts) /
                             static_cast<double>(Period);
  }

  /// The default plan behind a bare `--sample`: ~2% measured detail, a
  /// mostly-fast-forward gap with a warmup long enough to rebuild the
  /// cache/TLB/predictor working state, and a one-detail-interval ramp so
  /// measurement starts from a steady-state pipeline and speculative-
  /// thread population (tuned against the error bounds pinned in
  /// tests/sample_test.cpp).
  static SamplingPlan defaults() { return {30000, 2000, 66000, 2000}; }

  std::string str() const {
    std::string S = std::to_string(WarmupInsts) + ":" +
                    std::to_string(DetailInsts) + ":" +
                    std::to_string(FastForwardInsts);
    if (RampInsts > 0)
      S += ":" + std::to_string(RampInsts);
    return S;
  }
  bool operator==(const SamplingPlan &) const = default;
};

/// Parses "W:D:F" or "W:D:F:R" (warmup:detail:fastforward[:ramp], all
/// base-10 instruction counts) into \p Out. Rejects malformed text and
/// enabled plans with a zero detail interval (nothing to extrapolate
/// from). Self-contained so sim/ keeps no dependency on the CLI support
/// library.
inline bool parseSamplingPlan(const char *Text, SamplingPlan &Out) {
  if (!Text)
    return false;
  uint64_t Vals[4] = {0, 0, 0, 0};
  const char *P = Text;
  int Field = 0;
  for (; Field < 4; ++Field) {
    if (*P < '0' || *P > '9')
      return false;
    uint64_t V = 0;
    while (*P >= '0' && *P <= '9') {
      uint64_t Digit = static_cast<uint64_t>(*P - '0');
      if (V > (UINT64_MAX - Digit) / 10)
        return false; // Overflow.
      V = V * 10 + Digit;
      ++P;
    }
    Vals[Field] = V;
    if (*P == '\0')
      break;
    if (*P != ':' || Field == 3)
      return false;
    ++P;
  }
  if (Field < 2) // Fewer than the three mandatory fields.
    return false;
  SamplingPlan Plan{Vals[0], Vals[1], Vals[2], Vals[3]};
  if (Plan.enabled() && Plan.DetailInsts == 0)
    return false;
  Out = Plan;
  return true;
}

} // namespace ssp::sim

#endif // SSP_SIM_SAMPLING_H
