#include "probes.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "stats.h"
#include "tensor/kernels/gemm.h"

namespace perfbench {

namespace ds = desalign;

double TimeMedianMs(SpanRecorder& recorder, std::string_view name,
                    int64_t parent, int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const int64_t span = recorder.Begin(name, parent);
    const int64_t t0 = NowNs();
    fn();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    recorder.End(span);
  }
  return Median(ms);
}

int NumCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

GemmShape LargestGemm(const std::vector<GemmShape>& shapes) {
  GemmShape best;
  double best_macs = -1.0;
  for (const GemmShape& s : shapes) {
    const double macs = static_cast<double>(s.m) * static_cast<double>(s.k) *
                        static_cast<double>(s.n);
    if (macs > best_macs) {
      best_macs = macs;
      best = s;
    }
  }
  return best;
}

void ProbeGemm(SpanRecorder& recorder, const GemmShape& shape, int threads,
               WorkloadResult& result) {
  const int64_t m = shape.m;
  const int64_t k = shape.k;
  const int64_t n = shape.n;
  uint64_t state = 0x5eed;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> g(static_cast<size_t>(m * n));
  for (auto* v : {&a, &b, &g}) {
    for (float& x : *v) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      x = static_cast<float>(static_cast<int64_t>(state >> 40) % 2001 - 1000) /
          1000.0f;
    }
  }
  std::vector<float> y(static_cast<size_t>(m * n));
  std::vector<float> ga(static_cast<size_t>(m * k));
  std::vector<float> gb(static_cast<size_t>(k * n));
  // Repeat until ~0.3 s per variant (at least 3 calls) so small shapes
  // are not a single clock tick.
  const double macs =
      static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n);
  const int reps = std::clamp(static_cast<int>(3e8 / std::max(macs, 1.0)), 3, 50);
  const int before = ds::common::ThreadPool::Global().num_threads();
  const int64_t root = recorder.Begin("probe.tensor.gemm");
  double fwd[2] = {0.0, 0.0};
  double grad[2] = {0.0, 0.0};
  const int counts[2] = {1, threads};
  for (int v = 0; v < 2; ++v) {
    ds::common::ThreadPool::SetGlobalThreadCount(counts[v]);
    const std::string suffix = v == 0 ? ".t1" : "";
    fwd[v] = TimeMedianMs(recorder, "tensor.gemm" + suffix, root, reps, [&] {
      ds::tensor::kernels::MatMul(a.data(), b.data(), y.data(), m, k, n);
    });
    grad[v] = TimeMedianMs(recorder, "tensor.gemm_grad" + suffix, root, reps, [&] {
      ds::tensor::kernels::MatMulGradA(g.data(), b.data(), ga.data(), m, k, n);
      ds::tensor::kernels::MatMulGradB(g.data(), a.data(), gb.data(), m, k, n);
    });
  }
  ds::common::ThreadPool::SetGlobalThreadCount(before);
  recorder.End(root);
  result.Layer("tensor.gemm_ms", fwd[1], "ms");
  result.Layer("tensor.gemm_ms.t1", fwd[0], "ms");
  result.Layer("tensor.gemm_grad_ms", grad[1], "ms");
  result.Layer("tensor.gemm_grad_ms.t1", grad[0], "ms");
  result.Layer("tensor.thread_speedup", (fwd[0] + grad[0]) / (fwd[1] + grad[1]),
               "x");
  // Computed, not measured: 2·m·k·n flops and the minimum bytes one
  // forward call must touch (both operands and the output, fp32).
  result.Layer("tensor.gemm_flops", 2.0 * macs, "flop");
  result.Layer("tensor.gemm_bytes",
               4.0 * static_cast<double>(m * k + k * n + m * n), "B");
  result.Info("tensor.gemm_shape",
              std::to_string(m) + "x" + std::to_string(k) + "x" +
                  std::to_string(n) + " (" + shape.where + "); flops and " +
                  "bytes are computed from the shape");
}

void ProbeParallelFor(SpanRecorder& recorder, int threads,
                      WorkloadResult& result) {
  const int before = ds::common::ThreadPool::Global().num_threads();
  const int64_t root = recorder.Begin("probe.common.parallel_for");
  double us[2] = {0.0, 0.0};
  const int counts[2] = {1, threads};
  for (int v = 0; v < 2; ++v) {
    ds::common::ThreadPool::SetGlobalThreadCount(counts[v]);
    ds::common::ThreadPool& pool = ds::common::ThreadPool::Global();
    const int64_t range = 64 * static_cast<int64_t>(counts[v]);
    // Median of 200 batches of 20 calls: one call is a few microseconds,
    // below what a single steady-clock pair resolves reliably.
    std::vector<double> per_call;
    for (int batch = 0; batch < 200; ++batch) {
      const int64_t t0 = NowNs();
      for (int i = 0; i < 20; ++i) {
        pool.ParallelFor(0, range, [](int64_t, int64_t) {}, /*grain=*/1);
      }
      per_call.push_back(static_cast<double>(NowNs() - t0) / 20.0 / 1e3);
    }
    us[v] = Median(per_call);
    recorder.Add(v == 0 ? "common.parallel_for.t1" : "common.parallel_for",
                 root, -1, NowNs() - static_cast<int64_t>(us[v] * 1e3),
                 NowNs());
  }
  ds::common::ThreadPool::SetGlobalThreadCount(before);
  recorder.End(root);
  result.Layer("common.parallel_for_us", us[1], "us");
  result.Layer("common.parallel_for_us.t1", us[0], "us");
}

TensorCounters TensorCounters::Read() {
  auto& reg = ds::obs::MetricsRegistry::Global();
  TensorCounters c;
  c.pool_hit = reg.GetCounter("tensor.pool.hit").value();
  c.pool_miss = reg.GetCounter("tensor.pool.miss").value();
  c.solver_hit = reg.GetCounter("tensor.solver.cache_hit").value();
  c.solver_miss = reg.GetCounter("tensor.solver.cache_miss").value();
  c.solver_fallback = reg.GetCounter("tensor.solver.fallback").value();
  return c;
}

TensorCounters TensorCounters::Since(const TensorCounters& before) const {
  TensorCounters d;
  d.pool_hit = pool_hit - before.pool_hit;
  d.pool_miss = pool_miss - before.pool_miss;
  d.solver_hit = solver_hit - before.solver_hit;
  d.solver_miss = solver_miss - before.solver_miss;
  d.solver_fallback = solver_fallback - before.solver_fallback;
  return d;
}

void EmitTensorRatios(const TensorCounters& delta, WorkloadResult& result) {
  const int64_t pool = delta.pool_hit + delta.pool_miss;
  const int64_t dispatches = delta.solver_hit + delta.solver_miss;
  result.Layer("tensor.pool_hit_ratio",
               pool > 0 ? static_cast<double>(delta.pool_hit) /
                              static_cast<double>(pool)
                        : 0.0,
               "ratio");
  result.Layer("tensor.pool_requests", static_cast<double>(pool), "count");
  result.Layer("tensor.solver_fallback_ratio",
               dispatches > 0 ? static_cast<double>(delta.solver_fallback) /
                                    static_cast<double>(dispatches)
                              : 0.0,
               "ratio");
  result.Layer("tensor.solver_dispatches", static_cast<double>(dispatches),
               "count");
}

void RegisterFineHistograms() {
  // 0.01 ms .. ~10^5 ms in 0.5 % steps: ~3.2k buckets, 26 KiB each.
  const std::vector<double> bounds =
      ds::obs::Histogram::ExponentialBuckets(0.01, 1.005, 3230);
  auto& reg = ds::obs::MetricsRegistry::Global();
  reg.GetHistogram("train.epoch_ms", bounds);
  reg.GetHistogram("checkpoint.write_ms", bounds);
}

const ds::obs::SpanNodeSnapshot* FindSpan(
    const std::vector<ds::obs::SpanNodeSnapshot>& roots,
    const std::vector<std::string>& path) {
  if (path.empty()) return nullptr;
  const ds::obs::SpanNodeSnapshot* node = nullptr;
  for (const auto& r : roots) {
    if (r.name == path[0]) node = &r;
  }
  for (size_t i = 1; node != nullptr && i < path.size(); ++i) {
    node = node->Child(path[i]);
  }
  return node;
}

}  // namespace perfbench
