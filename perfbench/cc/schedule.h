#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny, fully specified generator, so a schedule is the
/// same bit for bit on every standard library (std::*_distribution is
/// implementation-defined).
uint64_t SplitMix64(uint64_t& state);

/// Uniform double in [0, 1) from the top 53 bits of SplitMix64.
double UnitUniform(uint64_t& state);

/// Derives an independent sub-seed for `stream` from a run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// `k` distinct indices of [0, n) in ascending order (all of them when
/// k >= n), chosen by `seed` alone.
std::vector<int64_t> SampleIndices(uint64_t seed, int64_t n, int64_t k);

/// One open-loop phase: request i is due at `due_s[i]` seconds after the
/// phase starts and asks query `query[i]` of the query pool.
struct ArrivalSchedule {
  std::vector<double> due_s;
  std::vector<int64_t> query;
};

/// Poisson arrivals at `rate_qps` over [0, seconds), built from `seed`
/// alone — never from completions — so every commit is offered the same
/// requests at the same instants. Queries cycle through the pool in
/// order starting at a seeded offset, so no two requests within
/// `pool_size` of each other share a query.
ArrivalSchedule PoissonSchedule(uint64_t seed, double rate_qps,
                                double seconds, int64_t pool_size);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
