#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// Runs `fn` `reps` times, each inside a span `name` under `parent`, and
/// returns the median wall time in ms. Timing uses the steady clock
/// whether or not the recorder is enabled.
double TimeMedianMs(SpanRecorder& recorder, std::string_view name,
                    int64_t parent, int reps, const std::function<void()>& fn);

/// Cores the process may run on (its CPU affinity).
int NumCores();

/// Threads of the global pool during Fit and the decode sweeps. One: on a
/// shared 4-vCPU VM, host contention made 4-thread
/// training 1.5-4x slower in about a third of runs, so a 4-thread
/// wall-clock time measured the host, not the program. Thread scaling is
/// measured per layer instead (tensor.*.t1 against N threads,
/// common.parallel_for_us).
constexpr int kTimedThreads = 1;

/// One dense GEMM shape, (m x k) · (k x n), and where the workload runs it.
struct GemmShape {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  std::string where;
};

/// The shape with the most multiply-adds.
GemmShape LargestGemm(const std::vector<GemmShape>& shapes);

/// tensor layer: times the public GEMM kernels (forward, and grad-A plus
/// grad-B) at `shape` with the global pool at 1 and at `threads` threads,
/// then restores `threads`. Emits tensor.gemm_ms(.t1),
/// tensor.gemm_grad_ms(.t1), tensor.thread_speedup, and the computed
/// tensor.gemm_flops / tensor.gemm_bytes of one forward call.
void ProbeGemm(SpanRecorder& recorder, const GemmShape& shape, int threads,
               WorkloadResult& result);

/// common layer: fork/join cost of an empty ParallelFor over the global
/// pool, at 1 and at `threads` threads (common.parallel_for_us(.t1)),
/// then restores the pool's previous size.
void ProbeParallelFor(SpanRecorder& recorder, int threads,
                      WorkloadResult& result);

/// The tensor layer's own obs counters, read before and after a phase.
struct TensorCounters {
  int64_t pool_hit = 0;
  int64_t pool_miss = 0;
  int64_t solver_hit = 0;
  int64_t solver_miss = 0;
  int64_t solver_fallback = 0;

  static TensorCounters Read();
  TensorCounters Since(const TensorCounters& before) const;
};

/// tensor.pool_hit_ratio / tensor.solver_fallback_ratio with their bases
/// (tensor.pool_requests / tensor.solver_dispatches) over a phase.
void EmitTensorRatios(const TensorCounters& delta, WorkloadResult& result);

/// Registers the library's duration histograms (train.epoch_ms,
/// checkpoint.write_ms) on the global registry with 0.5 %-wide buckets
/// before the library first asks for them, so percentiles read back from
/// obs keep sub-percent resolution. Call before any training.
void RegisterFineHistograms();

/// The node at `path` (e.g. {"train", "epoch", "forward"}) of obs's
/// aggregated span tree, or null.
const desalign::obs::SpanNodeSnapshot* FindSpan(
    const std::vector<desalign::obs::SpanNodeSnapshot>& roots,
    const std::vector<std::string>& path);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
