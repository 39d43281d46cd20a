// Concurrency test for GEMM dispatch (run under TSan by the sanitizer CI
// stage): several threads call the public MatMul at once, at a shape the
// static choice runs blocked and at one it runs row-axpy. Dispatch shares
// nothing mutable but its counters, so every output must match the
// reference bit for bit and the per-solver counters must account for every
// call.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "tensor/kernels/gemm.h"
#include "tensor/kernels/reference.h"
#include "tensor/kernels/solver/solver.h"

namespace desalign::tensor::kernels::solver {
namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

TEST(SolverRaceTest, ConcurrentPublicMatMulIsBitExactAndCounted) {
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 200;
  const int64_t m = 40, k = 40;
  // n = 40 runs blocked, n = 1 runs row-axpy.
  const int64_t widths[] = {40, 1};

  common::Rng rng(1000);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * widths[0]));
  for (auto& x : a) x = rng.UniformF(-1.0f, 1.0f);
  for (auto& x : b) x = rng.UniformF(-1.0f, 1.0f);
  std::vector<std::vector<float>> expected;
  for (const int64_t n : widths) {
    expected.emplace_back(static_cast<size_t>(m * n));
    reference::MatMul(a.data(), b.data(), expected.back().data(), m, k, n);
  }

  const int64_t ran0 = CounterValue("tensor.solver.ran.gemm.blocked8x8") +
                       CounterValue("tensor.solver.ran.gemm.rowaxpy");
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> y(static_cast<size_t>(m * widths[0]));
      for (int i = 0; i < kCallsPerThread; ++i) {
        const size_t w = static_cast<size_t>((i + t) % 2);
        const int64_t n = widths[w];
        MatMul(a.data(), b.data(), y.data(), m, k, n);
        if (std::memcmp(y.data(), expected[w].data(),
                        expected[w].size() * sizeof(float)) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(CounterValue("tensor.solver.ran.gemm.blocked8x8") +
                CounterValue("tensor.solver.ran.gemm.rowaxpy") - ran0,
            kThreads * kCallsPerThread);
}

}  // namespace
}  // namespace desalign::tensor::kernels::solver
