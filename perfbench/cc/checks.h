#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "align/metrics.h"
#include "serve/retriever.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Outcome of one correctness check. A run with any failed check reports
/// `correct: false` and no metric values.
struct CheckResult {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// FNV-1a over raw bytes; chain calls through `h` to digest several
/// buffers. Printed as the workload's output digest.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
uint64_t Digest(const void* data, size_t bytes, uint64_t h = kFnvOffset);
uint64_t DigestFloats(const std::vector<float>& v, uint64_t h = kFnvOffset);
uint64_t DigestTopK(const std::vector<desalign::serve::TopKResult>& results,
                    uint64_t h = kFnvOffset);
std::string Hex(uint64_t v);

/// The final training loss is finite.
CheckResult CheckFiniteLoss(double loss);

/// Training never rolled back to a checkpoint nor skipped a non-finite
/// step.
CheckResult CheckNoRollbacks(int64_t rollbacks, int64_t nonfinite_skips);

/// Every result's ids and scores are byte-identical to the reference.
CheckResult CheckIdenticalTopK(
    const std::string& name,
    const std::vector<desalign::serve::TopKResult>& got,
    const std::vector<desalign::serve::TopKResult>& want);

/// Mean |got ∩ truth| / |truth| over queries (top-k id sets).
double RecallAtK(const std::vector<desalign::serve::TopKResult>& got,
                 const std::vector<desalign::serve::TopKResult>& truth);

CheckResult CheckRecallFloor(const std::string& name, double recall,
                             double floor);

/// Ranking metrics by a direct count: for each row, rank = 1 + the number
/// of other columns scoring strictly above the diagonal.
desalign::align::RankingMetrics NaiveRankMetrics(
    const desalign::tensor::Tensor& sim);

/// The square sub-matrix sim[idx, idx] (keeps the diagonal's truth).
desalign::tensor::TensorPtr SampleSquare(const desalign::tensor::Tensor& sim,
                                         const std::vector<int64_t>& idx);

/// `reported` (from align::MetricsFromSimilarity) equals the naive count
/// on the same matrix.
CheckResult CheckRankMetrics(const std::string& name,
                             const desalign::tensor::Tensor& sim,
                             const desalign::align::RankingMetrics& reported);

/// Two digests of what must be the same output are equal.
CheckResult CheckSameDigest(const std::string& name, uint64_t first,
                            uint64_t again);

/// A count that must be zero is zero.
CheckResult CheckZero(const std::string& name, int64_t count);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
