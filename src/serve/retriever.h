#ifndef DESALIGN_SERVE_RETRIEVER_H_
#define DESALIGN_SERVE_RETRIEVER_H_

#include <cstdint>
#include <vector>

namespace desalign::serve {

/// Definite outcome of one serving request. Every future a BatchQueue
/// issues resolves with exactly one of these, so callers can tell a
/// legitimate empty result (kOk, empty store or k clamp) from an admission
/// rejection — the serving front door never aborts and never leaves an
/// outcome ambiguous. See docs/ROBUSTNESS.md "Overload protection".
enum class ServeStatus : uint8_t {
  kOk = 0,                 ///< scored; ids/scores are the real top-k
  kRejectedQueueFull = 1,  ///< shed at admission: queue at max_pending, or
                           ///< at the shed watermark while the governor is
                           ///< in kShedding
  kDeadlineExceeded = 2,   ///< request deadline expired before scoring
  kInvalidQuery = 3,       ///< malformed query (wrong dimension or a
                           ///< non-finite coordinate)
  kShutdown = 4,           ///< submitted after Shutdown
};

const char* ServeStatusName(ServeStatus status);

/// Rung of the graceful-degradation ladder a result was served at. Under
/// sustained overload the health governor steps the queue down this ladder
/// (cheaper answers instead of no answers) and back up once pressure
/// subsides; each result carries the rung so callers know they got a
/// degraded answer. kNone results are bit-identical to an unloaded queue.
enum class DegradationLevel : uint8_t {
  kNone = 0,          ///< full quality
  kReducedProbe = 1,  ///< IVF probes fewer cells (recall dips, scan shrinks)
  kNoRefine = 2,      ///< int8 fp32-refinement re-rank skipped: scores come
                      ///< from dequantized codes only
};

const char* DegradationLevelName(DegradationLevel level);

/// Top-k candidates for one query, best first. Ordering is the total order
/// (score descending, entity id ascending), so results are deterministic
/// even under score ties. `status` says whether ids/scores are meaningful
/// (kOk) or why they are empty; `degradation` flags answers served below
/// full quality by an overloaded queue.
struct TopKResult {
  std::vector<int64_t> ids;
  std::vector<float> scores;
  ServeStatus status = ServeStatus::kOk;
  DegradationLevel degradation = DegradationLevel::kNone;
};

/// Abstract batched top-k retrieval over an entity embedding table. The
/// serving front door (BatchQueue, serve-bench) programs against this, so
/// exact brute force (TopKRetriever) and the two-stage ANN index
/// (index::IvfRetriever) are interchangeable by configuration.
///
/// Contract every implementation must honour (and tests enforce):
///  - `queries` is num_queries x dim() row-major; queries are L2-normalized
///    internally, scores are cosine similarities;
///  - every query coordinate is finite: one NaN or +-Inf normalizes the
///    whole query to NaN, its scores have no order, and its answer would
///    depend on the order rows are offered. BatchQueue rejects such a
///    query as kInvalidQuery; direct callers must not pass one;
///  - the result vector always has exactly num_queries entries, in query
///    order (num_queries <= 0 yields an empty vector);
///  - k is clamped to size(); k <= 0 yields empty per-query results;
///  - ranking follows scoring::Better — score descending, exact float ties
///    broken toward the smaller entity id — so any two implementations
///    scoring the same candidate set return byte-identical results.
class Retriever {
 public:
  virtual ~Retriever() = default;

  virtual std::vector<TopKResult> Retrieve(const float* queries,
                                           int64_t num_queries,
                                           int64_t k) const = 0;

  /// Retrieval at a degradation rung, for the overload ladder. The base
  /// contract (result count, ordering, k clamping) is unchanged; a rung
  /// only shrinks the work per query. Implementations that have nothing to
  /// shed at a rung serve full quality (this default). Results do NOT
  /// carry the rung — the BatchQueue stamps `degradation` on what it hands
  /// out, since only it knows why the rung was requested.
  virtual std::vector<TopKResult> RetrieveDegraded(
      const float* queries, int64_t num_queries, int64_t k,
      DegradationLevel /*level*/) const {
    return Retrieve(queries, num_queries, k);
  }

  /// Embedding dimension queries must match.
  virtual int64_t dim() const = 0;

  /// Entities currently retrievable.
  virtual int64_t size() const = 0;
};

}  // namespace desalign::serve

#endif  // DESALIGN_SERVE_RETRIEVER_H_
