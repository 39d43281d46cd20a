#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace perfbench {

namespace {

constexpr double kTailCandidates[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double TailQuantile(int64_t n, int64_t beyond) {
  for (const double q : kTailCandidates) {
    // A small epsilon keeps exact cases such as 40 samples at p75 (10
    // beyond) from failing on the rounding of 0.25 * 40.
    if ((1.0 - q) * static_cast<double>(n) + 1e-9 >=
        static_cast<double>(beyond)) {
      return q;
    }
  }
  return 0.5;
}

const char* QuantileLabel(double q) {
  if (q >= 0.999) return "p99.9";
  if (q >= 0.99) return "p99";
  if (q >= 0.95) return "p95";
  if (q >= 0.9) return "p90";
  if (q >= 0.75) return "p75";
  return "p50";
}

}  // namespace perfbench
