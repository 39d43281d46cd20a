#include "align/metrics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "tensor/ops.h"

namespace desalign::align {

namespace {

// Descending score order with NaN below every number, so a NaN score ranks
// last. It is a strict weak order even with NaN (`std::greater` is not), and
// on NaN-free input it answers exactly as `a > b`, so selections make the
// same moves as with `std::greater`. A closure, not a function, so that
// std::nth_element inlines it.
constexpr auto kScoresAbove = [](float a, float b) {
  return a > b || (std::isnan(b) && !std::isnan(a));
};

}  // namespace

RankingMetrics MetricsFromSimilarity(const Tensor& sim) {
  DESALIGN_CHECK_EQ(sim.rows(), sim.cols());
  const int64_t n = sim.rows();
  RankingMetrics m;
  m.num_queries = n;
  for (int64_t i = 0; i < n; ++i) {
    const float truth = sim.At(i, i);
    int64_t rank = 1;
    // kScoresAbove(x, truth), with the NaN test on the truth hoisted out
    // of the loop so the common case stays one compare per score.
    if (std::isnan(truth)) {
      for (int64_t j = 0; j < n; ++j) {
        if (j != i && !std::isnan(sim.At(i, j))) ++rank;
      }
    } else {
      for (int64_t j = 0; j < n; ++j) {
        if (j != i && sim.At(i, j) > truth) ++rank;
      }
    }
    if (rank <= 1) m.h_at_1 += 1.0;
    if (rank <= 5) m.h_at_5 += 1.0;
    if (rank <= 10) m.h_at_10 += 1.0;
    m.mrr += 1.0 / static_cast<double>(rank);
  }
  if (n > 0) {
    m.h_at_1 /= n;
    m.h_at_5 /= n;
    m.h_at_10 /= n;
    m.mrr /= n;
  }
  return m;
}

TensorPtr CosineSimilarityMatrix(const TensorPtr& a, const TensorPtr& b) {
  tensor::NoGradGuard no_grad;
  auto an = tensor::RowL2Normalize(a);
  auto bn = tensor::RowL2Normalize(b);
  return tensor::MatMul(an, tensor::Transpose(bn));
}

void ApplyCsls(Tensor& sim, int k) {
  const int64_t n = sim.rows();
  const int64_t m = sim.cols();
  const int64_t kk = std::min<int64_t>(k, std::min(n, m));
  if (kk <= 0) return;
  std::vector<float> row_mean(n, 0.0f);
  std::vector<float> col_mean(m, 0.0f);
  std::vector<float> buf;
  for (int64_t i = 0; i < n; ++i) {
    buf.assign(sim.data().begin() + i * m, sim.data().begin() + (i + 1) * m);
    std::nth_element(buf.begin(), buf.begin() + (kk - 1), buf.end(),
                     kScoresAbove);
    float acc = 0.0f;
    for (int64_t j = 0; j < kk; ++j) acc += buf[j];
    row_mean[i] = acc / static_cast<float>(kk);
  }
  for (int64_t j = 0; j < m; ++j) {
    buf.resize(n);
    for (int64_t i = 0; i < n; ++i) buf[i] = sim.At(i, j);
    std::nth_element(buf.begin(), buf.begin() + (kk - 1), buf.end(),
                     kScoresAbove);
    float acc = 0.0f;
    for (int64_t i = 0; i < kk; ++i) acc += buf[i];
    col_mean[j] = acc / static_cast<float>(kk);
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      sim.At(i, j) = 2.0f * sim.At(i, j) - row_mean[i] - col_mean[j];
    }
  }
}

}  // namespace desalign::align
