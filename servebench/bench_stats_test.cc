// Checks the serving benchmark's own statistics. Exits nonzero on the
// first mismatch; run.py runs it after every build, before any timing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

void ExpectNear(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

void ExpectQuartiles(const std::vector<double>& values, double q1, double q2,
                     double q3, const char* what) {
  const auto q = servebench::Quartiles(values);
  ExpectNear(q[0], q1, what);
  ExpectNear(q[1], q2, what);
  ExpectNear(q[2], q3, what);
}

}  // namespace

int main() {
  using namespace servebench;

  ExpectNear(Median({}), 0.0, "median of nothing");
  ExpectNear(Median({7.0}), 7.0, "median of one");
  ExpectNear(Median({3.0, 1.0, 2.0}), 2.0, "median odd");
  ExpectNear(Median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");

  // Expected values from Python: statistics.quantiles(values, n=4).
  ExpectQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25,
                  "quartiles of 1..10");
  ExpectQuartiles({3, 1, 2}, 1.0, 2.0, 3.0, "quartiles of three");
  ExpectQuartiles({5, 1}, 0.0, 3.0, 6.0, "quartiles of two extrapolate");
  ExpectQuartiles({2.5, 10, 4, 7.25, 1}, 1.75, 4.0, 8.625,
                  "quartiles unsorted");

  // Nearest rank: p99 of 1000 samples is the 990th; ten lie beyond it.
  ExpectNear(static_cast<double>(NearestRank(99.0, 1000)), 990.0, "rank");
  ExpectNear(static_cast<double>(SamplesBeyond(99.0, 1000)), 10.0,
             "beyond p99 of 1000");
  ExpectNear(static_cast<double>(SamplesBeyond(99.0, 999)), 9.0,
             "beyond p99 of 999");
  ExpectNear(HighestSupportedPercentile(1000), 99.0, "pick at 1000");
  ExpectNear(HighestSupportedPercentile(999), 90.0, "pick at 999");
  ExpectNear(HighestSupportedPercentile(10000), 99.9, "pick at 10000");
  ExpectNear(HighestSupportedPercentile(100000), 99.99, "pick at 100000");
  ExpectNear(HighestSupportedPercentile(20), 50.0, "pick at 20");
  ExpectNear(HighestSupportedPercentile(19), 0.0, "pick at 19");

  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(static_cast<double>(i));
  ExpectNear(Percentile(ramp, 50.0), 500.0, "p50 of ramp");
  ExpectNear(Percentile(ramp, 99.0), 990.0, "p99 of ramp");
  ExpectNear(Percentile(ramp, 100.0), 1000.0, "p100 of ramp");
  ExpectNear(Percentile({}, 50.0), 0.0, "percentile of nothing");

  ExpectNear(Rec(200, 20), 0.9, "rec");
  ExpectNear(Rec(0, 0), 1.0, "rec without positives");
  ExpectNear(FailedFrac(2037, 53159), 2037.0 / 53159.0, "failed_frac");
  ExpectNear(FailedFrac(0, 0), 0.0, "failed_frac without orders");
  ExpectNear(1.0 - FailedFrac(0, 1448), 1.0, "order_ok_frac without faults");

  if (failures != 0) {
    std::fprintf(stderr, "bench_stats_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("bench_stats_test: ok\n");
  return 0;
}
