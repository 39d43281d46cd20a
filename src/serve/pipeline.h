#ifndef DESALIGN_SERVE_PIPELINE_H_
#define DESALIGN_SERVE_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/embedding_store.h"
#include "serve/retriever.h"
#include "serve/scoring.h"

namespace desalign::serve {

class RowSource;

/// Resolves the rerank_candidates policy (TopKOptions::rerank_candidates)
/// to a concrete stage-1 width C for one (k, n) query.
int64_t ResolveRerankCandidates(int64_t requested, int64_t k, int64_t n);

// ---- Row scorers: one per table dtype --------------------------------
//
// Prepare() turns a normalized fp32 query into what Score() consumes, once
// per query; Score(query, id) is row `id`'s stage-1 score. kReranked marks
// the approximate scorer whose survivors the pipeline re-scores in fp32.

/// fp32 rows (Elem = float) or bf16 patterns (Elem = uint16_t, decoded
/// inside Dot), scored exactly in one pass.
template <typename Elem>
struct ExactRows {
  static constexpr bool kReranked = false;
  using Query = const float*;
  const Elem* rows;
  int64_t dim;
  Query Prepare(const float* q) const { return q; }
  float Score(Query q, int64_t id) const {
    return scoring::Dot(q, rows + id * dim, dim);
  }
};

struct Int8Rows {
  static constexpr bool kReranked = true;
  using Query = scoring::Int8Query;
  const int8_t* codes;
  const float* scales;
  int64_t dim;
  Query Prepare(const float* q) const { return scoring::QuantizeQuery(q, dim); }
  float Score(const Query& q, int64_t id) const {
    return scoring::Int8Score(q, codes + id * dim, scales[id], dim);
  }
};

/// One worker's share [begin, end) of a retrieval call, as a candidate
/// generator sees it: the call's row scorer, and per query its
/// Normalized() row, its prepared form and its stage-1 heap. A generator
/// offers the candidates of query i, in any order, through OfferRows (a
/// contiguous id range) and OfferIds (an id list); which ids it offers is
/// all it decides. The two offer loops are compiled once per scorer in
/// pipeline.cc, so each hot loop gets its registers to itself.
template <typename Rows>
struct QueryChunk {
  Rows rows;
  const float* queries;  ///< normalized, num_queries x rows.dim
  int64_t begin;
  int64_t end;
  std::vector<typename Rows::Query> prepared;  ///< index i - begin
  std::vector<scoring::BoundedTopK> heaps;     ///< index i - begin

  const float* Normalized(int64_t i) const { return queries + i * rows.dim; }
  scoring::BoundedTopK& Heap(int64_t i) {
    return heaps[static_cast<size_t>(i - begin)];
  }
  /// Offers rows [row_begin, row_end) to query i.
  void OfferRows(int64_t i, int64_t row_begin, int64_t row_end);
  /// Offers rows ids[0, count) to query i.
  void OfferIds(int64_t i, const int64_t* ids, int64_t count);
};

/// The one retrieval pipeline: candidate generator → per-dtype row scorer
/// → shared int8 re-rank. Retrievers differ only in the generator they
/// pass to Run (all rows, or the probed IVF cells); the scorer is chosen
/// once per call from the snapshot's dtype, and everything an int8 table
/// needs after stage 1 — re-rank width, fp32 re-rank from an optional
/// RowSource or from dequantized rows, and the `quant.*` metrics — lives
/// here. Every stage ranks by scoring::Better, a strict total order, so
/// the result depends only on the candidate set, never on scan order,
/// block size, thread count or ISA.
class RetrievalPipeline {
 public:
  /// `registry` null = MetricsRegistry::Global().
  explicit RetrievalPipeline(obs::MetricsRegistry* registry);

  /// Retrieves the top `k` of `snap` for each of `num_queries` raw queries
  /// (num_queries x dim, normalized here). `generate(chunk)` runs on
  /// `pool` (null = ThreadPool::Global()) once per QueryChunk. int8
  /// tables keep
  /// ResolveRerankCandidates(rerank_candidates, k, n) stage-1 survivors
  /// per query and re-rank them in fp32, fetching rows from `source` when
  /// it is non-null and matches the table's shape (else, and for any
  /// failed fetch, from dequantized codes, counted on
  /// `quant.rerank_source_errors`). fp32/bf16 tables score exactly in one
  /// pass and ignore both arguments. Results follow the Retriever
  /// contract: num_queries entries, k clamped to size(), k <= 0 empty.
  template <typename Generate>
  std::vector<TopKResult> Run(const EmbeddingSnapshot& snap,
                              const float* queries, int64_t num_queries,
                              int64_t k, int64_t rerank_candidates,
                              const RowSource* source,
                              common::ThreadPool* pool,
                              Generate&& generate) const;

 private:
  /// `source` if it can refine int8 re-ranks over `snap`, else null; a
  /// source that cannot is counted as one refinement error.
  const RowSource* RefineSource(const EmbeddingSnapshot& snap,
                                const RowSource* source) const;

  /// Stage 2 for one int8 query: re-scores the stage-1 survivors in
  /// `candidates` with the fp32 Dot and keeps the best k.
  TopKResult Rerank(const EmbeddingSnapshot& snap, const float* query,
                    int64_t k, const RowSource* refine,
                    scoring::BoundedTopK& candidates, float* scratch) const;

  /// Counts one call of `num_queries` on the `quant.*` metrics.
  void Record(nn::TensorDtype dtype, int64_t num_queries,
              int64_t rerank_width) const;

  obs::Counter* int8_queries_;    // owned by the registry
  obs::Counter* bf16_queries_;    // owned by the registry
  obs::Counter* source_errors_;   // owned by the registry
  obs::Histogram* rerank_width_;  // owned by the registry
};

template <typename Generate>
std::vector<TopKResult> RetrievalPipeline::Run(
    const EmbeddingSnapshot& snap, const float* queries, int64_t num_queries,
    int64_t k, int64_t rerank_candidates, const RowSource* source,
    common::ThreadPool* pool, Generate&& generate) const {
  std::vector<TopKResult> results(
      num_queries > 0 ? static_cast<size_t>(num_queries) : 0);
  if (num_queries <= 0) return results;
  const int64_t n = snap.size();
  k = std::min(k, n);
  if (k <= 0) return results;
  const int64_t d = snap.dim();
  std::vector<float> q(queries, queries + num_queries * d);
  L2NormalizeRows(q.data(), num_queries, d);

  const nn::TensorDtype dtype = snap.dtype();
  const int64_t rerank = ResolveRerankCandidates(rerank_candidates, k, n);
  const RowSource* refine = RefineSource(snap, source);
  const auto scan = [&](const auto& rows) {
    using Rows = std::decay_t<decltype(rows)>;
    (pool != nullptr ? *pool : common::ThreadPool::Global()).ParallelFor(
        0, num_queries,
        [&](int64_t qb, int64_t qe) {
          QueryChunk<Rows> chunk{rows, q.data(), qb, qe, {}, {}};
          chunk.prepared.reserve(static_cast<size_t>(qe - qb));
          chunk.heaps.reserve(static_cast<size_t>(qe - qb));
          for (int64_t i = qb; i < qe; ++i) {
            chunk.prepared.push_back(rows.Prepare(chunk.Normalized(i)));
            chunk.heaps.emplace_back(Rows::kReranked ? rerank : k);
          }
          generate(chunk);
          std::vector<float> scratch(
              Rows::kReranked ? static_cast<size_t>(d) : 0);
          for (int64_t i = qb; i < qe; ++i) {
            results[static_cast<size_t>(i)] =
                Rows::kReranked
                    ? Rerank(snap, chunk.Normalized(i), k, refine,
                             chunk.Heap(i), scratch.data())
                    : chunk.Heap(i).Finish();
          }
        },
        /*grain=*/1);
  };
  switch (dtype) {
    case nn::TensorDtype::kFloat32:
      scan(ExactRows<float>{snap.row(0), d});
      break;
    case nn::TensorDtype::kBf16:
      scan(ExactRows<uint16_t>{snap.bf16_row(0), d});
      break;
    case nn::TensorDtype::kInt8:
      scan(Int8Rows{snap.codes_row(0), snap.scales(), d});
      break;
  }
  Record(dtype, num_queries, rerank);
  return results;
}

}  // namespace desalign::serve

#endif  // DESALIGN_SERVE_PIPELINE_H_
