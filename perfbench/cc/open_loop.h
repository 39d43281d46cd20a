#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "schedule.h"
#include "serve/batch_queue.h"
#include "serve/retriever.h"
#include "trace.h"

namespace perfbench {

/// What the generator saw for one request, in ns on the NowNs() clock.
struct RequestRecord {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  desalign::serve::ServeStatus status = desalign::serve::ServeStatus::kOk;
  desalign::serve::DegradationLevel degradation =
      desalign::serve::DegradationLevel::kNone;
};

struct OpenLoopResult {
  std::vector<RequestRecord> requests;  ///< schedule order
  /// (query index, answer) of every `sample_every`-th request answered kOk.
  std::vector<std::pair<int64_t, desalign::serve::TopKResult>> samples;
  /// Requests in flight at each submission, for the backlog test.
  std::vector<int64_t> backlog;
  /// Durations (ms) and failures of reloads run beside the phase.
  std::vector<double> reload_ms;
  int64_t reload_failures = 0;
};

/// Which request a query row belongs to, for the traced serve wrapper:
/// request i of the current phase asks pool row (offset + i) mod pool, and
/// at most `pool` requests are ever in flight, so the row and the id of
/// the newest submitted request identify the request uniquely.
struct RequestIdentity {
  std::atomic<int64_t> offset{0};
  std::atomic<int64_t> newest{-1};
  int64_t pool = 1;

  int64_t RequestOf(int64_t row) const;
};

struct OpenLoopOptions {
  double limit_ms = 50.0;  ///< latency limit, from each request's due time
  int64_t sample_every = 0;
  /// Optional work run back to back on its own thread while the generator
  /// runs (the reload phase); returns false on failure.
  std::function<bool()> reload;
  RequestIdentity* identity = nullptr;  ///< traced run only
};

/// Offers `schedule` to `queue` open loop from the calling thread: each
/// request is submitted at its due time whatever the queue is doing,
/// with an absolute deadline of due + limit, and between arrivals the
/// thread polls the oldest outstanding future (sleeping at most 100 us
/// between polls) to timestamp each answer. Returns once every request
/// has resolved.
OpenLoopResult RunOpenLoop(desalign::serve::BatchQueue& queue,
                           const ArrivalSchedule& schedule,
                           const std::vector<float>& pool, int64_t dim,
                           const OpenLoopOptions& options);

/// Latency from due time to answer, ms. A refused request (any status but
/// kOk) counts as missing the limit: it contributes `limit_ms` plus its
/// time to resolution, so it always lands above the limit and the tail
/// still moves with how long refusals took. Late kOk answers contribute
/// their real latency, which is already above the limit.
std::vector<double> LatenciesMs(const OpenLoopResult& run, double limit_ms);

/// Percentile q of the latencies (as LatenciesMs counts them) within each
/// `window_s`-second window of due times, then the median over the windows
/// that hold at least 20 requests (the whole phase when none does). A host
/// stall that hits one window moves one window's value, not the phase's
/// tail, so the result reflects the service rather than the worst moment
/// of a shared machine.
double WindowedPercentile(const OpenLoopResult& run, double limit_ms, double q,
                          double window_s);

/// Generator lag (submit − due), ms, per request.
std::vector<double> GeneratorLagMs(const OpenLoopResult& run);

/// Classifies every request of a phase.
PhaseCount CountPhase(const std::string& name, double offered_qps,
                      const OpenLoopResult& run, double limit_ms);

/// A ladder rung passes when p99 latency (failures included as misses)
/// is within `limit_ms` and the backlog did not grow: the mean in-flight
/// count over the last quarter of submissions exceeds the first quarter's
/// by no more than `slack` requests.
bool RungPasses(const OpenLoopResult& run, double limit_ms, int64_t slack);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
