#ifndef DESALIGN_INDEX_INDEX_BENCH_H_
#define DESALIGN_INDEX_INDEX_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace desalign::index {

/// Entity-count sweep comparing brute-force retrieval against the IVF
/// index on clustered synthetic embeddings (a mixture around random unit
/// centers — uniform noise has no cluster structure for an IVF to find,
/// which would make every recall number meaningless).
struct IndexBenchOptions {
  std::vector<int64_t> entity_counts = {10000, 100000, 1000000};
  int64_t dim = 64;
  int64_t queries = 256;  ///< per case; latency is measured per query
  int64_t k = 10;
  int64_t nprobe = 8;         ///< probe width of the partial-probe path
  int64_t num_centroids = 0;  ///< 0 = auto (~sqrt(n))
  int64_t clusters = 256;  ///< mixture components in the synthetic data
  double noise = 0.25;     ///< per-coordinate noise amplitude
  uint64_t seed = 20240808;
  /// CI mode: only the smallest entity count, fewer queries.
  bool smoke = false;
};

/// One measured retrieval path within a case. `path` is "brute"
/// (TopKRetriever), "ivf_full" (nprobe = num_centroids; must be bit-exact
/// vs brute) or "ivf_partial" (options.nprobe).
struct IndexBenchPath {
  std::string path;
  int64_t nprobe = 0;  ///< 0 for brute
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  double recall_at_k = 0.0;      ///< vs brute-force ground truth
  bool bitexact = false;         ///< ids AND scores byte-equal to brute
  double mean_candidates = 0.0;  ///< exactly-scored entities per query
};

struct IndexBenchCase {
  int64_t entities = 0;
  int64_t dim = 0;
  int64_t k = 0;
  int64_t num_centroids = 0;
  double build_ms = 0.0;
  std::vector<IndexBenchPath> paths;
};

struct IndexBenchReport {
  std::vector<IndexBenchCase> cases;
  /// Schema desalign.index_bench.v1; validated by tools/ci.sh.
  std::string ToJson() const;
};

IndexBenchReport RunIndexBench(const IndexBenchOptions& options);

}  // namespace desalign::index

#endif  // DESALIGN_INDEX_INDEX_BENCH_H_
