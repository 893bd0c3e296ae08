//===- obs/Percentile.h - Latency sample sets with percentiles ------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small latency-sample accumulator for the serving layer: collect
/// per-request wall times, then read p50/p95/p99 (nearest-rank) and the
/// mean. Its only user is AdaptService: `ssp-adaptd --metrics` flushes
/// the percentiles into the Registry as integer microsecond counters
/// (serve.latency_p50_us etc.) so they survive the counters/timers JSON
/// shape.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_OBS_PERCENTILE_H
#define SSP_OBS_PERCENTILE_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ssp::obs {

/// Accumulates double-valued samples (unit chosen by the producer) and
/// answers nearest-rank percentile queries. Not thread-safe; producers
/// record into per-thread sets or under their own lock.
class PercentileSet {
public:
  void record(double Sample) { Samples.push_back(Sample); }

  size_t count() const { return Samples.size(); }
  bool empty() const { return Samples.empty(); }

  /// Nearest-rank percentile of \p P in [0, 100]; 0 when empty.
  double percentile(double P) const {
    if (Samples.empty())
      return 0.0;
    std::vector<double> Sorted = Samples;
    std::sort(Sorted.begin(), Sorted.end());
    double Rank = P / 100.0 * static_cast<double>(Sorted.size());
    size_t Idx = Rank <= 1.0 ? 0 : static_cast<size_t>(Rank + 0.5) - 1;
    return Sorted[std::min(Idx, Sorted.size() - 1)];
  }

  double mean() const {
    if (Samples.empty())
      return 0.0;
    double Sum = 0;
    for (double S : Samples)
      Sum += S;
    return Sum / static_cast<double>(Samples.size());
  }

private:
  std::vector<double> Samples;
};

} // namespace ssp::obs

#endif // SSP_OBS_PERCENTILE_H
