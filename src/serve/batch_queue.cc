#include "serve/batch_queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"

namespace desalign::serve {

namespace {

constexpr common::Clock::TimePoint kNoDeadline =
    common::Clock::TimePoint::max();

/// Runs a DESALIGN_FAULTS site and applies the only action the serve path
/// honours: `delay` stalls `param` ms on the queue's injected clock. Must
/// be called without the queue mutex held — a ManualClock delay wakes the
/// queue's own waiters.
void MaybeDelay(const char* site, common::Clock* clock) {
  const common::FaultAction action =
      common::FaultInjector::Global().OnSite(site);
  if (action.kind == common::FaultKind::kDelay) {
    clock->SleepFor(common::Clock::FromMillis(
        static_cast<double>(action.param)));
  }
}

}  // namespace

BatchQueue::BatchQueue(const Retriever* retriever, BatchQueueOptions options,
                       ServeStats* stats)
    : retriever_(retriever),
      options_(options),
      stats_(stats),
      clock_(options.clock ? options.clock : common::Clock::Real()),
      governor_(options.overload, options.max_pending, stats) {
  DESALIGN_CHECK(retriever_ != nullptr);
  DESALIGN_CHECK_GT(options_.max_batch, 0);
  DESALIGN_CHECK_GT(options_.k, 0);
  DESALIGN_CHECK_GE(options_.max_pending, 0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

BatchQueue::~BatchQueue() { Shutdown(); }

std::future<TopKResult> BatchQueue::Submit(std::vector<float> query) {
  return Submit(std::move(query), options_.deadline_ms);
}

std::future<TopKResult> BatchQueue::Submit(std::vector<float> query,
                                           double timeout_ms) {
  return SubmitWithDeadline(
      std::move(query),
      timeout_ms > 0.0
          ? clock_->Now() + common::Clock::FromMillis(timeout_ms)
          : kNoDeadline);
}

std::future<TopKResult> BatchQueue::SubmitWithDeadline(
    std::vector<float> query, common::Clock::TimePoint deadline) {
  Pending req;
  req.query = std::move(query);
  req.enqueued = clock_->Now();
  req.deadline = deadline;
  std::future<TopKResult> future = req.promise.get_future();

  // Typed admission control: every early-out resolves the future with a
  // definite status instead of aborting or handing back an ambiguous
  // empty result. A non-finite coordinate would normalize the whole query
  // to NaN, which has no ranking (the Retriever contract requires finite
  // queries).
  if (static_cast<int64_t>(req.query.size()) != retriever_->dim() ||
      !std::all_of(req.query.begin(), req.query.end(),
                   [](float v) { return std::isfinite(v); })) {
    Reject(std::move(req), ServeStatus::kInvalidQuery);
    return future;
  }
  if (req.deadline <= req.enqueued) {
    Reject(std::move(req), ServeStatus::kDeadlineExceeded);
    return future;
  }
  const common::FaultAction fault =
      common::FaultInjector::Global().OnSite("serve.submit.admit");
  if (fault.kind == common::FaultKind::kFail) {
    // Reject-storm chaos: admission turns requests away as if overloaded.
    Reject(std::move(req), ServeStatus::kRejectedQueueFull);
    return future;
  }
  // Shed fast path: while the queue is visibly past its bound (or past the
  // shed watermark while the governor is shedding), turn the request away
  // on relaxed atomics alone — an overload's reject storm must not contend
  // on the queue mutex with the worker that is trying to drain it. depth_
  // is approximate here; admissions that slip past re-check under the lock.
  if (options_.max_pending > 0) {
    const int64_t seen = depth_.load(std::memory_order_relaxed);
    const int64_t watermark = static_cast<int64_t>(
        options_.overload.shed_depth_fraction *
        static_cast<double>(options_.max_pending));
    if (seen >= options_.max_pending ||
        (governor_.shedding() && seen >= watermark)) {
      Reject(std::move(req), ServeStatus::kRejectedQueueFull);
      return future;
    }
  }
  {
    common::MutexLock lock(mutex_);
    if (stop_) {
      Reject(std::move(req), ServeStatus::kShutdown);
      return future;
    }
    const int64_t depth = static_cast<int64_t>(pending_.size());
    if (options_.max_pending > 0 && depth >= options_.max_pending) {
      Reject(std::move(req), ServeStatus::kRejectedQueueFull);
      return future;
    }
    if (governor_.shedding()) {
      // Shedding sheds the *surplus*, not the service: admission drops to
      // the shed watermark so the worker keeps draining full batches at
      // capacity while the excess is turned away cheaply. An unbounded
      // queue has no watermark, so shedding there rejects everything.
      const int64_t watermark = static_cast<int64_t>(
          options_.overload.shed_depth_fraction *
          static_cast<double>(options_.max_pending));
      if (options_.max_pending <= 0 || depth >= watermark) {
        Reject(std::move(req), ServeStatus::kRejectedQueueFull);
        return future;
      }
    }
    pending_.push_back(std::move(req));
    depth_.store(static_cast<int64_t>(pending_.size()),
                 std::memory_order_relaxed);
    if (stats_ != nullptr) {
      stats_->RecordAdmitted();
      stats_->RecordQueueDepth(static_cast<int64_t>(pending_.size()));
    }
  }
  wake_.NotifyAll();
  return future;
}

void BatchQueue::Reject(Pending req, ServeStatus status) {
  if (stats_ != nullptr) stats_->RecordRejected(status);
  TopKResult result;
  result.status = status;
  req.promise.set_value(std::move(result));
}

void BatchQueue::Shutdown() {
  std::thread to_join;
  {
    common::MutexLock lock(mutex_);
    stop_ = true;
    to_join = std::move(worker_);  // claimed by exactly one caller
  }
  wake_.NotifyAll();
  if (to_join.joinable()) to_join.join();
}

int64_t BatchQueue::batches_processed() const {
  common::MutexLock lock(mutex_);
  return batches_;
}

common::Clock::TimePoint BatchQueue::BatchWindowDeadline() const {
  common::Clock::TimePoint deadline =
      pending_.front().enqueued +
      common::Clock::FromMillis(options_.max_wait_ms);
  // A pending request's deadline caps the co-batch hold: better a partial
  // batch than a shed request.
  for (const Pending& req : pending_) {
    deadline = std::min(deadline, req.deadline);
  }
  return deadline;
}

void BatchQueue::WorkerLoop() {
  while (true) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    int64_t depth = 0;
    {
      common::MutexLock lock(mutex_);
      while (!stop_ && pending_.empty()) {
        if (governor_.rung() == 0) {
          wake_.Wait(lock);
          continue;
        }
        // Degraded or shedding with nothing queued (shedding rejects all
        // admissions, so this is the steady state of a full shed): keep
        // sampling on a window timer, otherwise the ladder could never
        // walk back down and the queue would shed forever.
        const common::Clock::TimePoint sample_at =
            clock_->Now() + common::Clock::FromMillis(std::max(
                                options_.overload.sample_window_ms, 1.0));
        clock_->WaitUntil(wake_, mutex_, lock, sample_at);
        if (!stop_ && pending_.empty()) {
          governor_.OnSample(0, clock_->Now());
        }
      }
      if (pending_.empty()) {
        if (stop_) return;
        continue;
      }
      if (!stop_) {
        // Give co-batching a chance: hold until the batch fills, the
        // oldest pending query has waited max_wait_ms, or a pending
        // deadline is about to expire.
        while (!stop_ &&
               static_cast<int64_t>(pending_.size()) < options_.max_batch) {
          const common::Clock::TimePoint window = BatchWindowDeadline();
          if (clock_->Now() >= window) break;
          if (clock_->WaitUntil(wake_, mutex_, lock, window) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      // Shed pre-scan: expired requests leave the queue without ever
      // occupying a slot in the batch.
      const common::Clock::TimePoint now = clock_->Now();
      auto alive = std::stable_partition(
          pending_.begin(), pending_.end(),
          [now](const Pending& req) { return req.deadline > now; });
      expired.assign(std::make_move_iterator(alive),
                     std::make_move_iterator(pending_.end()));
      pending_.erase(alive, pending_.end());
      depth = static_cast<int64_t>(pending_.size());
      const size_t take = std::min(pending_.size(),
                                   static_cast<size_t>(options_.max_batch));
      batch.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.begin() + take));
      pending_.erase(pending_.begin(), pending_.begin() + take);
      depth_.store(static_cast<int64_t>(pending_.size()),
                   std::memory_order_relaxed);
      if (stats_ != nullptr) {
        stats_->RecordQueueDepth(static_cast<int64_t>(pending_.size()));
      }
    }
    for (Pending& req : expired) {
      if (stats_ != nullptr) {
        stats_->RecordQueueWait(clock_->MillisSince(req.enqueued));
      }
      governor_.RecordOutcome(/*deadline_miss=*/true);
      Reject(std::move(req), ServeStatus::kDeadlineExceeded);
    }
    // The governor samples the backlog depth at every batch formation —
    // on the injected clock, outside the queue lock (it may log).
    const DegradationLevel level = governor_.OnSample(depth, clock_->Now());
    if (stats_ != nullptr) {
      for (const Pending& req : batch) {
        stats_->RecordQueueWait(clock_->MillisSince(req.enqueued));
      }
    }
    if (!batch.empty()) {
      ProcessBatch(std::move(batch), level);
      common::MutexLock lock(mutex_);
      ++batches_;
    }
  }
}

void BatchQueue::ProcessBatch(std::vector<Pending> batch,
                              DegradationLevel level) {
  // Chaos site: the worker itself stalls (e.g. scheduling hiccup) before
  // it looks at deadlines, so the pre-scoring check below sheds what the
  // stall expired.
  MaybeDelay("serve.batch.worker", clock_);

  // Pre-scoring deadline check: a request that expired between batch
  // formation and here is shed instead of scored.
  std::vector<Pending> live;
  live.reserve(batch.size());
  {
    const common::Clock::TimePoint now = clock_->Now();
    for (Pending& req : batch) {
      if (req.deadline <= now) {
        governor_.RecordOutcome(/*deadline_miss=*/true);
        Reject(std::move(req), ServeStatus::kDeadlineExceeded);
      } else {
        live.push_back(std::move(req));
      }
    }
  }
  if (live.empty()) return;

  const int64_t d = retriever_->dim();
  const int64_t b = static_cast<int64_t>(live.size());
  std::vector<float> queries(static_cast<size_t>(b * d));
  for (int64_t i = 0; i < b; ++i) {
    std::copy(live[static_cast<size_t>(i)].query.begin(),
              live[static_cast<size_t>(i)].query.end(),
              queries.begin() + i * d);
  }

  // Chaos site: retrieval runs slow. Placed before the Retrieve call so an
  // injected delay models the scan itself taking long — completed-late
  // outcomes below then drive the governor's miss-rate signal.
  MaybeDelay("serve.batch.retrieve", clock_);

  std::vector<TopKResult> results =
      level == DegradationLevel::kNone
          ? retriever_->Retrieve(queries.data(), b, options_.k)
          : retriever_->RetrieveDegraded(queries.data(), b, options_.k, level);

  const common::Clock::TimePoint done = clock_->Now();
  // Record before resolving any promise, so a caller woken by its future
  // sees stats that already include its own batch.
  if (stats_ != nullptr) {
    stats_->RecordBatch(b);
    stats_->RecordDegraded(level == DegradationLevel::kNone ? 0 : b);
    for (const Pending& req : live) {
      stats_->RecordQuery(clock_->MillisSince(req.enqueued));
    }
  }
  for (int64_t i = 0; i < b; ++i) {
    Pending& req = live[static_cast<size_t>(i)];
    TopKResult& result = results[static_cast<size_t>(i)];
    result.degradation = level;
    // Completed late is still delivered (the work is done), but it counts
    // as a deadline miss for the governor's pressure signal.
    governor_.RecordOutcome(/*deadline_miss=*/req.deadline <= done);
    req.promise.set_value(std::move(result));
  }
}

}  // namespace desalign::serve
