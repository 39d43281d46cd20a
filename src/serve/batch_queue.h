#ifndef DESALIGN_SERVE_BATCH_QUEUE_H_
#define DESALIGN_SERVE_BATCH_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/health.h"
#include "serve/retriever.h"
#include "serve/stats.h"

namespace desalign::serve {

struct BatchQueueOptions {
  /// Queries drained into one retrieval call; reaching it wakes the worker
  /// immediately.
  int64_t max_batch = 64;
  /// Longest a pending query waits for co-batching before the worker runs
  /// a partial batch.
  double max_wait_ms = 1.0;
  /// Candidates returned per query.
  int64_t k = 10;
  /// Admission bound on the pending queue; a Submit past it resolves
  /// immediately with kRejectedQueueFull. 0 = unbounded (no admission
  /// bound, and the governor's depth signal is disabled).
  int64_t max_pending = 0;
  /// Default per-request deadline, relative to admission. A request whose
  /// deadline passes before scoring is shed with kDeadlineExceeded instead
  /// of occupying a retrieval slot. 0 = no default deadline; per-request
  /// overrides via Submit(query, timeout_ms) / SubmitWithDeadline.
  double deadline_ms = 0.0;
  /// Time source for every wait, deadline and latency decision. nullptr =
  /// Clock::Real(); tests inject a common::ManualClock to drive batching
  /// windows and deadlines deterministically.
  common::Clock* clock = nullptr;
  /// Overload governor knobs (disabled by default — bounded admission and
  /// deadlines above work regardless; this adds the degradation ladder).
  OverloadOptions overload;
};

/// Request-batching front door for any Retriever (brute-force
/// TopKRetriever or the IVF index): callers submit single
/// queries from any thread and get a future; a dedicated worker drains up
/// to `max_batch` pending queries (or whatever accumulated within
/// `max_wait_ms` of the oldest one) into one batched Retrieve call. This
/// trades a bounded per-query delay for the cache locality of blocked
/// batch scans — the standard online-serving pattern.
///
/// The queue is also the overload-protection front door: admission is
/// bounded (`max_pending`), requests carry deadlines that are enforced at
/// admission, at batch formation and before scoring, and a hysteresis
/// HealthGovernor walks the degradation ladder (full quality → reduced
/// IVF probe → no fp32 refinement → shedding) under sustained pressure,
/// restoring full quality after it subsides. Every future resolves with a
/// definite ServeStatus — the queue never aborts on bad input and never
/// leaves an outcome ambiguous. See docs/ROBUSTNESS.md.
///
/// Latencies (submit to completion, including queue wait), batch sizes
/// and all admission/shed/degradation outcomes are recorded on the
/// optional ServeStats.
class BatchQueue {
 public:
  /// `retriever` (and its store), `stats` and `options.clock` must outlive
  /// the queue.
  BatchQueue(const Retriever* retriever, BatchQueueOptions options = {},
             ServeStats* stats = nullptr);
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Enqueues one query under the default deadline (`options.deadline_ms`).
  /// The future always resolves: with the scored top-k (kOk, possibly
  /// degraded), or immediately with the typed rejection — kInvalidQuery
  /// (size != retriever dim, or a NaN / +-Inf coordinate), kShutdown
  /// (after Shutdown),
  /// kRejectedQueueFull (queue at max_pending, or the governor is
  /// shedding), kDeadlineExceeded (deadline expired).
  [[nodiscard]] std::future<TopKResult> Submit(std::vector<float> query);

  /// Same, with a per-request deadline `timeout_ms` from now (<= 0 = no
  /// deadline, overriding the default).
  [[nodiscard]] std::future<TopKResult> Submit(std::vector<float> query,
                                               double timeout_ms);

  /// Same, with an absolute deadline on `options.clock`'s timeline.
  [[nodiscard]] std::future<TopKResult> SubmitWithDeadline(
      std::vector<float> query, common::Clock::TimePoint deadline);

  /// Drains every pending query, then stops the worker. Idempotent; also
  /// called by the destructor. Later Submits resolve with kShutdown.
  void Shutdown();

  int64_t batches_processed() const;

  /// Overload-governor observability (lock-free).
  HealthState health_state() const { return governor_.state(); }
  int health_rung() const { return governor_.rung(); }
  DegradationLevel degradation_level() const { return governor_.level(); }

 private:
  struct Pending {
    std::vector<float> query;
    std::promise<TopKResult> promise;
    common::Clock::TimePoint enqueued;
    /// TimePoint::max() = no deadline.
    common::Clock::TimePoint deadline;
  };

  /// Resolves a request with a non-kOk status and counts the outcome.
  void Reject(Pending req, ServeStatus status);

  /// Earliest of (oldest pending + max_wait) and every pending deadline.
  common::Clock::TimePoint BatchWindowDeadline() const REQUIRES(mutex_);

  void WorkerLoop();
  void ProcessBatch(std::vector<Pending> batch, DegradationLevel level);

  const Retriever* retriever_;
  BatchQueueOptions options_;
  ServeStats* stats_;
  common::Clock* clock_;
  HealthGovernor governor_;

  mutable common::Mutex mutex_;
  common::CondVar wake_;
  /// Mirrors pending_.size() so overloaded Submits can be turned away on a
  /// relaxed load without touching the queue mutex (the shed fast path —
  /// under a reject storm, admission must not contend with the worker).
  /// Approximate by design; the authoritative bound is re-checked under
  /// mutex_ before any push.
  std::atomic<int64_t> depth_{0};
  std::vector<Pending> pending_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  int64_t batches_ GUARDED_BY(mutex_) = 0;
  std::thread worker_ GUARDED_BY(mutex_);  // claimed (moved out) by Shutdown
};

}  // namespace desalign::serve

#endif  // DESALIGN_SERVE_BATCH_QUEUE_H_
