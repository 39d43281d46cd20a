#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double UnitUniform(uint64_t& state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (0xD1B54A32D192ED03ULL * (stream + 1));
  return SplitMix64(state);
}

std::vector<int64_t> SampleIndices(uint64_t seed, int64_t n, int64_t k) {
  std::vector<int64_t> all(static_cast<size_t>(std::max<int64_t>(n, 0)));
  std::iota(all.begin(), all.end(), 0);
  if (k >= n) return all;
  uint64_t state = seed;
  for (int64_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<int64_t>(SplitMix64(state) %
                                            static_cast<uint64_t>(n - i));
    std::swap(all[static_cast<size_t>(i)], all[static_cast<size_t>(j)]);
  }
  all.resize(static_cast<size_t>(k));
  std::sort(all.begin(), all.end());
  return all;
}

ArrivalSchedule PoissonSchedule(uint64_t seed, double rate_qps,
                                double seconds, int64_t pool_size) {
  ArrivalSchedule schedule;
  if (rate_qps <= 0.0 || seconds <= 0.0 || pool_size <= 0) return schedule;
  uint64_t state = seed;
  const int64_t offset =
      static_cast<int64_t>(SplitMix64(state) % static_cast<uint64_t>(pool_size));
  double t = 0.0;
  for (int64_t i = 0;; ++i) {
    // Inverse-CDF exponential gap; 1 - u is in (0, 1], so log is finite.
    t += -std::log(1.0 - UnitUniform(state)) / rate_qps;
    if (t >= seconds) break;
    schedule.due_s.push_back(t);
    schedule.query.push_back((offset + i) % pool_size);
  }
  return schedule;
}

}  // namespace perfbench
