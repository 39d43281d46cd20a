#include "align/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace desalign::align {
namespace {

using tensor::Tensor;

TEST(MetricsTest, PerfectDiagonalGivesAllOnes) {
  auto sim = Tensor::FromData(3, 3, {1, 0, 0, 0, 1, 0, 0, 0, 1});
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_DOUBLE_EQ(m.h_at_1, 1.0);
  EXPECT_DOUBLE_EQ(m.h_at_10, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_EQ(m.num_queries, 3);
}

TEST(MetricsTest, KnownRanksHandComputed) {
  // Row 0: truth 0.9 is the max -> rank 1.
  // Row 1: truth 0.1, both others higher -> rank 3.
  // Row 2: truth 0.5, one higher -> rank 2.
  auto sim = Tensor::FromData(3, 3,
                              {0.9f, 0.2f, 0.1f,
                               0.8f, 0.1f, 0.3f,
                               0.7f, 0.2f, 0.5f});
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_NEAR(m.h_at_1, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.h_at_5, 1.0, 1e-9);
  EXPECT_NEAR(m.mrr, (1.0 + 1.0 / 3.0 + 0.5) / 3.0, 1e-9);
}

TEST(MetricsTest, WorstCase) {
  // Diagonal is always the smallest.
  auto sim = Tensor::FromData(2, 2, {0.0f, 1.0f, 1.0f, 0.0f});
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_DOUBLE_EQ(m.h_at_1, 0.0);
  EXPECT_DOUBLE_EQ(m.mrr, 0.5);  // rank 2 both
}

TEST(MetricsTest, HAtKMonotone) {
  common::Rng rng(3);
  auto sim = Tensor::Create(20, 20);
  for (auto& v : sim->data()) v = rng.UniformF(0.0f, 1.0f);
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_LE(m.h_at_1, m.h_at_5);
  EXPECT_LE(m.h_at_5, m.h_at_10);
  EXPECT_GE(m.mrr, m.h_at_1 / 1.0 * 0.99);  // MRR >= H@1
}

TEST(MetricsTest, NanTruthRanksLast) {
  // Row 0's truth score is NaN: it must rank below both numbers, not count
  // as a hit. Row 1 has a NaN off the diagonal, which ranks below its
  // truth; row 2 is a plain rank-2 row.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto sim = Tensor::FromData(3, 3,
                              {nan, 0.2f, 0.1f,
                               0.8f, 0.9f, nan,
                               0.7f, 0.2f, 0.5f});
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_NEAR(m.h_at_1, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.mrr, (1.0 / 3.0 + 1.0 + 0.5) / 3.0, 1e-9);
}

TEST(CosineSimilarityTest, MatchesManual) {
  auto a = Tensor::FromData(1, 2, {1.0f, 0.0f});
  auto b = Tensor::FromData(2, 2, {1.0f, 0.0f, 0.0f, 1.0f});
  auto sim = CosineSimilarityMatrix(a, b);
  EXPECT_NEAR(sim->At(0, 0), 1.0f, 1e-5);
  EXPECT_NEAR(sim->At(0, 1), 0.0f, 1e-5);
}

TEST(CosineSimilarityTest, ScaleInvariant) {
  auto a = Tensor::FromData(1, 3, {1, 2, 3});
  auto b = Tensor::FromData(1, 3, {10, 20, 30});
  auto sim = CosineSimilarityMatrix(a, b);
  EXPECT_NEAR(sim->At(0, 0), 1.0f, 1e-5);
}

TEST(CosineSimilarityTest, BuildsNoAutogradGraph) {
  auto a = Tensor::FromData(1, 2, {1, 2}, /*requires_grad=*/true);
  auto sim = CosineSimilarityMatrix(a, a);
  EXPECT_TRUE(sim->parents().empty());
}

TEST(CslsTest, PreservesArgmaxStructureOnSymmetricScores) {
  // CSLS should not destroy an unambiguous diagonal.
  auto sim = Tensor::FromData(3, 3,
                              {0.9f, 0.1f, 0.1f,
                               0.1f, 0.9f, 0.1f,
                               0.1f, 0.1f, 0.9f});
  ApplyCsls(*sim, 1);
  auto m = MetricsFromSimilarity(*sim);
  EXPECT_DOUBLE_EQ(m.h_at_1, 1.0);
}

TEST(CslsTest, PenalizesHubColumns) {
  // Column 1 is a "hub": highly similar to every row. Its large
  // neighbourhood mean is subtracted, demoting it relative to the specific
  // match in column 0.
  auto sim = Tensor::FromData(3, 3,
                              {0.75f, 0.80f, 0.30f,
                               0.20f, 0.82f, 0.30f,
                               0.20f, 0.81f, 0.78f});
  // Row 0's best raw match is the hub column 1 (0.80 > 0.75) — wrong.
  EXPECT_GT(sim->At(0, 1), sim->At(0, 0));
  ApplyCsls(*sim, 3);
  EXPECT_GT(sim->At(0, 0), sim->At(0, 1));
}

TEST(CslsTest, NanScoresRankLastInNeighbourhoods) {
  // One NaN score: with k = 2 every row and column still has two numbers
  // above it, so every neighbourhood mean is finite and only the NaN cell
  // itself stays NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> raw = {0.9f, 0.1f, 0.4f, nan,
                                  0.2f, 0.8f, 0.3f, 0.6f,
                                  0.5f, 0.7f, 0.1f, 0.2f,
                                  0.3f, 0.2f, 0.9f, 0.4f};
  auto sim = Tensor::FromData(4, 4, raw);
  ApplyCsls(*sim, 2);
  // Hand-computed top-2 means over the numbers only.
  const float row_mean[] = {(0.9f + 0.4f) / 2.0f, (0.8f + 0.6f) / 2.0f,
                            (0.7f + 0.5f) / 2.0f, (0.9f + 0.4f) / 2.0f};
  const float col_mean[] = {(0.9f + 0.5f) / 2.0f, (0.8f + 0.7f) / 2.0f,
                            (0.9f + 0.4f) / 2.0f, (0.6f + 0.4f) / 2.0f};
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      if (i == 0 && j == 3) {
        EXPECT_TRUE(std::isnan(sim->At(i, j)));
        continue;
      }
      EXPECT_NEAR(sim->At(i, j),
                  2.0f * raw[i * 4 + j] - row_mean[i] - col_mean[j], 1e-6)
          << i << "," << j;
    }
  }
}

TEST(CslsTest, FiniteScoresMatchGreaterOrderBitForBit) {
  // On NaN-free input the NaN-aware order must make nth_element do exactly
  // what std::greater did, so the CSLS output keeps its bits.
  common::Rng rng(4);
  const int64_t n = 37;
  const int64_t m = 29;
  const int k = 10;
  auto sim = Tensor::Create(n, m);
  for (auto& v : sim->data()) v = rng.UniformF(-1.0f, 1.0f);
  sim->data()[5] = -0.0f;
  sim->data()[6] = 0.0f;
  sim->data()[7] = std::numeric_limits<float>::infinity();
  std::vector<float> want = sim->data();
  {
    std::vector<float> row_mean(n);
    std::vector<float> col_mean(m);
    std::vector<float> buf;
    for (int64_t i = 0; i < n; ++i) {
      buf.assign(want.begin() + i * m, want.begin() + (i + 1) * m);
      std::nth_element(buf.begin(), buf.begin() + (k - 1), buf.end(),
                       std::greater<float>());
      float acc = 0.0f;
      for (int j = 0; j < k; ++j) acc += buf[j];
      row_mean[i] = acc / static_cast<float>(k);
    }
    for (int64_t j = 0; j < m; ++j) {
      buf.resize(n);
      for (int64_t i = 0; i < n; ++i) buf[i] = want[i * m + j];
      std::nth_element(buf.begin(), buf.begin() + (k - 1), buf.end(),
                       std::greater<float>());
      float acc = 0.0f;
      for (int i = 0; i < k; ++i) acc += buf[i];
      col_mean[j] = acc / static_cast<float>(k);
    }
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        want[i * m + j] = 2.0f * want[i * m + j] - row_mean[i] - col_mean[j];
      }
    }
  }
  ApplyCsls(*sim, k);
  EXPECT_EQ(std::memcmp(sim->data().data(), want.data(),
                        want.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace desalign::align
