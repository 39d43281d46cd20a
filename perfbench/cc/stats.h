#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Interpolated percentile of `values` at quantile q in [0, 1]. The rank
/// is the 0-based fractional rank q·(n−1), the definition
/// obs::HistogramSnapshot::Quantile uses, interpolated linearly between the
/// two neighbouring order statistics instead of inside a bucket. Empty
/// input yields NaN.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest of {0.5, 0.75, 0.9, 0.95, 0.99, 0.999} that leaves at least
/// `beyond` of `n` samples above it, i.e. (1 − q)·n ≥ beyond. Returns 0.5
/// when even the median leaves fewer (the caller reports the sample count).
double TailQuantile(int64_t n, int64_t beyond = 10);

/// "p75", "p99.9", ... for a quantile returned by TailQuantile.
const char* QuantileLabel(double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
