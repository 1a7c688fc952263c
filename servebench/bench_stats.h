// Statistics the serving benchmark reports: medians and quartiles of
// repeated measurements, latency percentiles that the sample supports,
// and the quality ratios derived from settled stream accounting.
#ifndef SERVEBENCH_BENCH_STATS_H_
#define SERVEBENCH_BENCH_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace servebench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so spreads printed here match the
/// ones computed over repeated runs. Needs at least two values; a single
/// value is returned as all three quartiles, an empty input as zeros.
inline std::array<double, 3> Quartiles(std::vector<double> values) {
  std::array<double, 3> q{};
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const int64_t ld = static_cast<int64_t>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  const int64_t m = ld + 1;
  for (int64_t i = 1; i < 4; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    q[static_cast<size_t>(i - 1)] =
        (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

/// 1-based nearest rank of percentile `p` (in (0, 100]) among `n` samples.
inline int64_t NearestRank(double p, int64_t n) {
  const int64_t rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
inline int64_t SamplesBeyond(double p, int64_t n) {
  return n <= 0 ? 0 : n - NearestRank(p, n);
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier decides the value.
inline constexpr int64_t kMinTail = 10;

/// The percentiles the benchmark may report, lowest first.
inline constexpr std::array<double, 5> kPercentiles = {50.0, 90.0, 99.0,
                                                       99.9, 99.99};

/// Highest entry of kPercentiles with at least kMinTail samples beyond it
/// among `n` samples; 0 when even the median is unsupported.
inline double HighestSupportedPercentile(int64_t n) {
  double best = 0.0;
  for (const double p : kPercentiles) {
    if (SamplesBeyond(p, n) >= kMinTail) best = p;
  }
  return best;
}

/// Nearest-rank percentile `p` of `values` (unsorted); 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(values.size());
  const size_t rank = static_cast<size_t>(NearestRank(p, n) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

/// Recall of the audited guarantee: 1 - misses / positives (1 when no
/// event was present, since nothing could be missed).
inline double Rec(int64_t positives, int64_t misses) {
  return positives > 0 ? 1.0 - static_cast<double>(misses) /
                                   static_cast<double>(positives)
                       : 1.0;
}

/// Share of relay orders dropped (0 when none were submitted).
inline double FailedFrac(int64_t dropped, int64_t submitted) {
  return submitted > 0 ? static_cast<double>(dropped) /
                             static_cast<double>(submitted)
                       : 0.0;
}

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_STATS_H_
