#include "serve/pipeline.h"

#include <algorithm>

#include "serve/row_source.h"

namespace desalign::serve {

void scoring::BoundedTopK::OfferSlow(float score, int64_t id) {
  const Candidate c{score, id};
  if (static_cast<int64_t>(heap_.size()) < k_) {
    heap_.push_back(c);
    std::push_heap(heap_.begin(), heap_.end(), Better);
    full_ = static_cast<int64_t>(heap_.size()) == k_;
  } else {
    if (!Better(c, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), Better);
    heap_.back() = c;
    std::push_heap(heap_.begin(), heap_.end(), Better);
  }
  worst_score_ = heap_.front().score;
}

int64_t ResolveRerankCandidates(int64_t requested, int64_t k, int64_t n) {
  if (requested < 0) return n;  // exact mode: re-rank everything
  int64_t c = requested == 0 ? std::max<int64_t>(4 * k, 64) : requested;
  c = std::max(c, k);
  return std::min(c, n);
}

template <typename Rows>
void QueryChunk<Rows>::OfferRows(int64_t i, int64_t row_begin,
                                 int64_t row_end) {
  const Rows scorer = rows;
  const typename Rows::Query& q = prepared[static_cast<size_t>(i - begin)];
  scoring::BoundedTopK& heap = Heap(i);
  for (int64_t r = row_begin; r < row_end; ++r) {
    heap.Offer(scorer.Score(q, r), r);
  }
}

template <typename Rows>
void QueryChunk<Rows>::OfferIds(int64_t i, const int64_t* ids,
                                int64_t count) {
  const Rows scorer = rows;
  const typename Rows::Query& q = prepared[static_cast<size_t>(i - begin)];
  scoring::BoundedTopK& heap = Heap(i);
  for (int64_t e = 0; e < count; ++e) {
    heap.Offer(scorer.Score(q, ids[e]), ids[e]);
  }
}

template struct QueryChunk<ExactRows<float>>;
template struct QueryChunk<ExactRows<uint16_t>>;
template struct QueryChunk<Int8Rows>;

RetrievalPipeline::RetrievalPipeline(obs::MetricsRegistry* registry) {
  obs::MetricsRegistry& r =
      registry != nullptr ? *registry : obs::MetricsRegistry::Global();
  int8_queries_ = &r.GetCounter("quant.int8_queries");
  bf16_queries_ = &r.GetCounter("quant.bf16_queries");
  source_errors_ = &r.GetCounter("quant.rerank_source_errors");
  rerank_width_ = &r.GetHistogram(
      "quant.rerank_candidates",
      obs::Histogram::ExponentialBuckets(1.0, 2.0, 30));
}

const RowSource* RetrievalPipeline::RefineSource(
    const EmbeddingSnapshot& snap, const RowSource* source) const {
  // Refinement only applies to the int8 re-rank, and only while the source
  // matches the snapshot's shape (a reload may have swapped tables since
  // the source was opened).
  if (source == nullptr || snap.dtype() != nn::TensorDtype::kInt8) {
    return nullptr;
  }
  if (source->rows() == snap.size() && source->dim() == snap.dim()) {
    return source;
  }
  source_errors_->Increment(1);
  return nullptr;
}

TopKResult RetrievalPipeline::Rerank(const EmbeddingSnapshot& snap,
                                     const float* query, int64_t k,
                                     const RowSource* refine,
                                     scoring::BoundedTopK& candidates,
                                     float* scratch) const {
  // Rows come from the full-precision source when one is attached, else
  // from fixed-order scalar dequantization — either way the final top-k is
  // bit-identical across threads, block sizes and ISA.
  const int64_t d = snap.dim();
  scoring::BoundedTopK final_heap(k);
  int64_t fetch_errors = 0;
  for (const int64_t id : candidates.FinishIds()) {
    const float* row;
    if (refine != nullptr && refine->Row(id, scratch)) {
      row = scratch;
    } else {
      if (refine != nullptr) ++fetch_errors;
      row = snap.RowAsFloat(id, scratch);
    }
    final_heap.Offer(scoring::Dot(query, row, d), id);
  }
  if (fetch_errors > 0) source_errors_->Increment(fetch_errors);
  return final_heap.Finish();
}

void RetrievalPipeline::Record(nn::TensorDtype dtype, int64_t num_queries,
                               int64_t rerank_width) const {
  if (dtype == nn::TensorDtype::kInt8) {
    int8_queries_->Increment(num_queries);
    rerank_width_->Record(static_cast<double>(rerank_width));
  } else if (dtype == nn::TensorDtype::kBf16) {
    bf16_queries_->Increment(num_queries);
  }
}

}  // namespace desalign::serve
