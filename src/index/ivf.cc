#include "index/ivf.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "serve/scoring.h"

namespace desalign::index {

namespace {

using serve::scoring::BoundedTopK;
using serve::scoring::SquaredL2;

int64_t ResolveCentroids(int64_t requested, int64_t n) {
  if (n <= 0) return 0;
  if (requested > 0) return std::min(requested, n);
  const auto root = static_cast<int64_t>(
      std::llround(std::ceil(std::sqrt(static_cast<double>(n)))));
  return std::min(std::max<int64_t>(root, 1), n);
}

}  // namespace

IvfRetriever::IvfRetriever(serve::EmbeddingStore* store, IvfOptions options)
    : store_(store), options_(options), pipeline_(options.registry) {
  DESALIGN_CHECK(store_ != nullptr);
  obs::MetricsRegistry& registry = options_.registry != nullptr
                                       ? *options_.registry
                                       : obs::MetricsRegistry::Global();
  builds_ = &registry.GetCounter("index.builds");
  build_ms_ = &registry.GetGauge("index.build_ms");
  queries_ = &registry.GetCounter("index.queries");
  probes_ = &registry.GetCounter("index.probes");
  candidates_ = &registry.GetHistogram(
      "index.candidates_per_query",
      obs::Histogram::ExponentialBuckets(1.0, 2.0, 30));
  Rebuild();
}

std::shared_ptr<const IvfRetriever::Built> IvfRetriever::Current() const {
  common::MutexLock lock(mutex_);
  return built_;
}

void IvfRetriever::Rebuild() {
  common::Stopwatch build_clock;
  auto built = std::make_shared<Built>();
  built->snap = store_->Snapshot();
  const serve::EmbeddingSnapshot& snap = built->snap;
  const int64_t n = snap.size();
  const int64_t dim = snap.dim();
  if (n > 0) {
    KMeansOptions kopts;
    kopts.num_centroids = ResolveCentroids(options_.num_centroids, n);
    kopts.seed = options_.seed;
    kopts.sample_rows = options_.kmeans_sample_rows;
    kopts.pool = options_.pool;
    built->coarse = TrainKMeans(snap, kopts);
    const int64_t nc = built->coarse.num_centroids;

    // Every row's cell, in parallel: RowAsFloat dequantizes in a fixed
    // order, so a row's cell is the same whichever thread assigns it.
    std::vector<int64_t> cell(static_cast<size_t>(n));
    common::ThreadPool& pool = options_.pool != nullptr
                                   ? *options_.pool
                                   : common::ThreadPool::Global();
    pool.ParallelFor(
        0, n,
        [&](int64_t rb, int64_t re) {
          std::vector<float> scratch(static_cast<size_t>(dim));
          for (int64_t r = rb; r < re; ++r) {
            cell[static_cast<size_t>(r)] = NearestCentroid(
                built->coarse, snap.RowAsFloat(r, scratch.data()));
          }
        },
        common::ThreadPool::GrainForCost(nc * dim));
    // Serial counting sort by cell: rows are visited in ascending id
    // order, so every inverted list comes out id-ascending.
    built->list_start.assign(static_cast<size_t>(nc + 1), 0);
    for (const int64_t c : cell) {
      ++built->list_start[static_cast<size_t>(c + 1)];
    }
    std::partial_sum(built->list_start.begin(), built->list_start.end(),
                     built->list_start.begin());
    built->entries.resize(static_cast<size_t>(n));
    std::vector<int64_t> cursor(built->list_start.begin(),
                                built->list_start.end() - 1);
    for (int64_t r = 0; r < n; ++r) {
      built->entries[static_cast<size_t>(
          cursor[static_cast<size_t>(cell[static_cast<size_t>(r)])]++)] = r;
    }
  }
  built->build_ms = build_clock.ElapsedMillis();
  builds_->Increment();
  build_ms_->Set(built->build_ms);
  common::MutexLock lock(mutex_);
  built_ = std::move(built);
}

common::Status IvfRetriever::ReloadAndRebuild(
    const std::string& path, const serve::ReloadOptions& options,
    serve::ServeStats* stats) {
  const common::Status status = store_->Reload(path, options, stats);
  // On failure the store kept its last-good table and this index still
  // serves the (snapshot, lists) pair it was built from.
  if (!status.ok()) return status;
  Rebuild();
  return common::Status::Ok();
}

std::vector<serve::TopKResult> IvfRetriever::Retrieve(const float* queries,
                                                      int64_t num_queries,
                                                      int64_t k) const {
  return RetrieveWithProbe(queries, num_queries, k, options_.nprobe);
}

std::vector<serve::TopKResult> IvfRetriever::RetrieveDegraded(
    const float* queries, int64_t num_queries, int64_t k,
    serve::DegradationLevel level) const {
  if (level < serve::DegradationLevel::kReducedProbe) {
    return Retrieve(queries, num_queries, k);
  }
  const int64_t nprobe =
      std::min(std::max<int64_t>(options_.nprobe / 4, 1), options_.nprobe);
  return RetrieveWithProbe(queries, num_queries, k, nprobe);
}

std::vector<serve::TopKResult> IvfRetriever::RetrieveWithProbe(
    const float* queries, int64_t num_queries, int64_t k,
    int64_t nprobe) const {
  const std::shared_ptr<const Built> built = Current();
  const int64_t d = built->snap.dim();
  const int64_t nc = built->coarse.num_centroids;
  nprobe = std::min(std::max<int64_t>(nprobe, 1), nc);
  const float* centroids = built->coarse.centroids.data();
  auto results = pipeline_.Run(
      built->snap, queries, num_queries, k, options_.rerank_candidates,
      /*source=*/nullptr, options_.pool, [&](auto& chunk) {
        for (int64_t i = chunk.begin; i < chunk.end; ++i) {
          // Nearest cells by squared L2, ties toward the smaller centroid
          // id — the same rule assignment used at build time.
          const float* qi = chunk.Normalized(i);
          BoundedTopK probe(nprobe);
          for (int64_t c = 0; c < nc; ++c) {
            probe.Offer(-SquaredL2(qi, centroids + c * d, d), c);
          }
          // The cell visit order is irrelevant to the output: the
          // candidate set is a set, and scoring::Better is total.
          int64_t offered = 0;
          for (const int64_t c : probe.FinishIds()) {
            const int64_t lb = built->list_start[static_cast<size_t>(c)];
            const int64_t le = built->list_start[static_cast<size_t>(c + 1)];
            chunk.OfferIds(i, built->entries.data() + lb, le - lb);
            offered += le - lb;
          }
          candidates_->Record(static_cast<double>(offered));
        }
      });
  if (num_queries > 0 && std::min(k, built->snap.size()) > 0) {
    queries_->Increment(num_queries);
    probes_->Increment(num_queries * nprobe);
  }
  return results;
}

int64_t IvfRetriever::dim() const { return Current()->snap.dim(); }

int64_t IvfRetriever::size() const { return Current()->snap.size(); }

int64_t IvfRetriever::num_centroids() const {
  return Current()->coarse.num_centroids;
}

double IvfRetriever::last_build_ms() const { return Current()->build_ms; }

common::Result<RetrieverKind> ParseRetrieverKind(const std::string& name) {
  if (name == "brute") return RetrieverKind::kBruteForce;
  if (name == "ivf") return RetrieverKind::kIvf;
  return common::Status::InvalidArgument(
      "unknown retriever kind '" + name + "' (expected brute|ivf)");
}

std::unique_ptr<serve::Retriever> MakeRetriever(serve::EmbeddingStore* store,
                                                const RetrieverConfig& config) {
  if (config.kind == RetrieverKind::kIvf) {
    return std::make_unique<IvfRetriever>(store, config.ivf);
  }
  return std::make_unique<serve::TopKRetriever>(store, config.topk);
}

}  // namespace desalign::index
