#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary process-wide epoch.
int64_t NowNs();

/// The steady-clock time point `ns` nanoseconds after that epoch.
SteadyClock::time_point TimePointFromNs(int64_t ns);

/// One recorded interval. `parent` is the id of the span that caused it
/// (-1 for a root); every span of one serving request carries that
/// request's id in `request` (-1 when the span belongs to no request).
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of a span: its duration minus the part of [start, end) that
/// the union of its children's intervals covers. Children may overlap each
/// other (parallel work) and may stick out of the parent; only the covered
/// part inside the parent is subtracted, so the result is never negative.
int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children);

/// In-memory span store for the traced run. Spans are recorded by the
/// benchmark's own code around each call into a library layer, kept in
/// memory, and written out once at the end (WriteJsonl). A disabled
/// recorder records nothing and costs one branch per call, which is how
/// the untraced end-to-end run uses the same code. Thread-safe: the serve
/// workloads record from the queue worker and the generator at once.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id, or -1 when disabled.
  int64_t Begin(std::string_view name, int64_t parent = -1,
                int64_t request = -1);
  /// Closes span `id` now (no-op for -1).
  void End(int64_t id);
  /// Records a span whose interval the caller already measured.
  int64_t Add(std::string_view name, int64_t parent, int64_t request,
              int64_t start_ns, int64_t end_ns);

  std::vector<Span> spans() const;

  /// Seconds spent inside this recorder's own methods — the tracing
  /// overhead the traced run adds over the untraced one.
  double overhead_seconds() const;

  /// Adds time spent in other tracing-only code (the serve wrapper's
  /// request bookkeeping) to overhead_seconds().
  void AddOverheadNs(int64_t ns);

  /// Writes one JSON object per span: id, parent, request, name,
  /// start_ns, end_ns and self_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  mutable desalign::common::Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
  int64_t overhead_ns_ GUARDED_BY(mutex_) = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
