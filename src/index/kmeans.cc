#include "index/kmeans.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hot.h"
#include "serve/scoring.h"

namespace desalign::index {

namespace {

// The hot loop of both k-means training and IVF cell assignment. Its
// speed swings by up to 40 % with its code placement (common/hot.h), so
// it is pinned to keep the IVF build time independent of unrelated code.
DESALIGN_HOT int64_t NearestOf(const float* x, const float* centroids,
                               int64_t k, int64_t dim) {
  int64_t best = 0;
  float best_dist = serve::scoring::SquaredL2(x, centroids, dim);
  for (int64_t c = 1; c < k; ++c) {
    // Strictly-less: on an exact distance tie the earlier (smaller id)
    // centroid wins, matching the probe stage's ordering contract.
    const float dist =
        serve::scoring::SquaredL2(x, centroids + c * dim, dim);
    if (dist < best_dist) {
      best = c;
      best_dist = dist;
    }
  }
  return best;
}

}  // namespace

int64_t NearestCentroid(const KMeansModel& model, const float* x) {
  DESALIGN_CHECK_GT(model.num_centroids, 0);
  return NearestOf(x, model.centroids.data(), model.num_centroids,
                   model.dim);
}

KMeansModel TrainKMeans(const serve::EmbeddingSnapshot& table,
                        const KMeansOptions& options) {
  KMeansModel model;
  model.dim = table.dim();
  const int64_t n = table.size();
  if (n <= 0) return model;
  const int64_t dim = table.dim();
  const int64_t k = std::min(std::max<int64_t>(options.num_centroids, 1), n);
  model.num_centroids = k;

  common::Rng rng(options.seed);
  // Training subset: a deterministic sample caps the per-iteration cost;
  // the quantizer only has to carve the space into balanced cells, which
  // a sample does as well as the full corpus.
  std::vector<int64_t> train_rows;
  if (options.sample_rows > 0 && options.sample_rows < n) {
    const int64_t sample = std::max(options.sample_rows, k);
    train_rows = rng.SampleWithoutReplacement(n, std::min(sample, n));
    std::sort(train_rows.begin(), train_rows.end());
  } else {
    train_rows.resize(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) train_rows[static_cast<size_t>(r)] = r;
  }
  const int64_t t = static_cast<int64_t>(train_rows.size());

  // Initial centroids: k distinct training rows drawn from the seeded Rng.
  // Rows are read through RowAsFloat so quantized tables train the same
  // quantizer everywhere (dequantization is fixed-order scalar math).
  model.centroids.resize(static_cast<size_t>(k * dim));
  std::vector<float> scratch(static_cast<size_t>(dim));
  const std::vector<int64_t> init = rng.SampleWithoutReplacement(t, k);
  for (int64_t c = 0; c < k; ++c) {
    const float* src = table.RowAsFloat(
        train_rows[static_cast<size_t>(init[c])], scratch.data());
    std::copy(src, src + dim, model.centroids.data() + c * dim);
  }

  common::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : common::ThreadPool::Global();
  std::vector<int64_t> assign(static_cast<size_t>(t));
  std::vector<double> sums(static_cast<size_t>(k * dim));
  std::vector<int64_t> counts(static_cast<size_t>(k));
  const int64_t grain =
      std::max<int64_t>(1, common::ThreadPool::GrainForCost(k * dim));

  for (int iter = 0; iter < options.iterations; ++iter) {
    // Assignment: per-row and order-free, so the pool may split it any
    // way — assign[i] is a pure function of (row i, centroids).
    pool.ParallelFor(
        0, t,
        [&](int64_t begin, int64_t end) {
          std::vector<float> chunk_scratch(static_cast<size_t>(dim));
          for (int64_t i = begin; i < end; ++i) {
            assign[static_cast<size_t>(i)] = NearestOf(
                table.RowAsFloat(train_rows[static_cast<size_t>(i)],
                                 chunk_scratch.data()),
                model.centroids.data(), k, dim);
          }
        },
        grain);

    // Update: serial accumulation in ascending row order. This is the
    // deterministic reduction — O(t * dim) adds, cheap next to the
    // O(t * k * dim) assignment above, and the double accumulators make
    // the final float cast stable.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (int64_t i = 0; i < t; ++i) {
      const int64_t c = assign[static_cast<size_t>(i)];
      const float* row = table.RowAsFloat(
          train_rows[static_cast<size_t>(i)], scratch.data());
      double* sum = sums.data() + c * dim;
      for (int64_t j = 0; j < dim; ++j) sum[j] += row[j];
      ++counts[static_cast<size_t>(c)];
    }
    for (int64_t c = 0; c < k; ++c) {
      const int64_t count = counts[static_cast<size_t>(c)];
      if (count == 0) continue;  // empty cell keeps its previous centroid
      const double inv = 1.0 / static_cast<double>(count);
      const double* sum = sums.data() + c * dim;
      float* centroid = model.centroids.data() + c * dim;
      for (int64_t j = 0; j < dim; ++j) {
        centroid[j] = static_cast<float>(sum[j] * inv);
      }
    }
  }
  return model;
}

}  // namespace desalign::index
