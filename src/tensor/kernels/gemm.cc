#include "tensor/kernels/gemm.h"

#include <cstring>

#include "common/thread_pool.h"
#include "tensor/kernels/buffer_pool.h"
#include "tensor/kernels/internal.h"
#include "tensor/kernels/rowwise.h"
#include "tensor/kernels/solver/solver.h"

namespace desalign::tensor::kernels {

// The public entry points route through solver::DispatchGemm, which picks
// the row-axpy kernels below or the blocked solver from the shape alone and
// runs it. Every solver is bit-identical to reference.cc, so this
// indirection is a speed knob only.

void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n) {
  solver::DispatchGemm(solver::GemmOp::kMatMul, a, b, y, m, k, n);
}

void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n) {
  solver::DispatchGemm(solver::GemmOp::kMatMulGradA, g, b, ga, m, k, n);
}

void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n) {
  solver::DispatchGemm(solver::GemmOp::kMatMulGradB, g, a, gb, m, k, n);
}

namespace rowaxpy {

void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n) {
  if (n == 0) return;  // y is empty and may be null, which memset rejects
  if (n == 1) {
    // One output column: a length-1 span::Axpy per term costs a call per
    // element. Accumulate each row in a register instead, same chain: +0.0,
    // then ascending p, skipping zero a-elements.
    common::ThreadPool::Global().ParallelFor(
        0, m,
        [&](int64_t row_begin, int64_t row_end) {
          for (int64_t i = row_begin; i < row_end; ++i) {
            const float* arow = a + i * k;
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p) {
              const float av = arow[p];
              if (av != 0.0f) acc += av * b[p];
            }
            y[i] = acc;
          }
        },
        KernelGrain(k));
    return;
  }
  const IsaLevel isa = ActiveIsa();
  common::ThreadPool::Global().ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          float* yrow = y + i * n;
          std::memset(yrow, 0, static_cast<size_t>(n) * sizeof(float));
          const float* arow = a + i * k;
          for (int64_t p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            span::Axpy(isa, av, b + p * n, yrow, n);
          }
        }
      },
      KernelGrain(k * n));
}

void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n) {
  // ga[i,p] += sum_j g[i,j] * b[p,j]. The serial version computed a dot per
  // (i,p); here each row i is built in a zeroed workspace by streaming
  // j-ascending axpys of b's transposed rows. Per element the partial-sum
  // sequence is identical ((..(0 + t_0) + t_1)..), so results are bit-exact,
  // but the inner loop has no loop-carried dependence and vectorizes.
  // Terms with g[i,j] == 0 are NOT skipped — the serial dot included them,
  // and +0.0 is not always a bitwise no-op (-0.0 + 0.0 == +0.0).
  if (m <= 0 || k <= 0) return;  // ga is empty; tmp would be null below
  if (n == 1) {
    // Each dot has a single term: ga[i,p] += (0.0f + g[i] * b[p]). The
    // explicit +0.0 start is the serial dot's, and it is not a no-op: it
    // turns a -0.0 product into +0.0.
    common::ThreadPool::Global().ParallelFor(
        0, m,
        [&](int64_t row_begin, int64_t row_end) {
          for (int64_t i = row_begin; i < row_end; ++i) {
            const float gi = g[i];
            float* garow = ga + i * k;
            for (int64_t p = 0; p < k; ++p) garow[p] += 0.0f + gi * b[p];
          }
        },
        KernelGrain(k));
    return;
  }
  const IsaLevel isa = ActiveIsa();
  PooledBuffer bt(static_cast<size_t>(n * k), /*zero=*/false);
  Transpose(b, bt.data(), k, n);
  const float* btd = bt.data();
  common::ThreadPool::Global().ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        PooledBuffer tmp(static_cast<size_t>(k), /*zero=*/false);
        for (int64_t i = row_begin; i < row_end; ++i) {
          std::memset(tmp.data(), 0, static_cast<size_t>(k) * sizeof(float));
          const float* grow = g + i * n;
          for (int64_t j = 0; j < n; ++j) {
            span::Axpy(isa, grow[j], btd + j * k, tmp.data(), k);
          }
          span::Acc(isa, tmp.data(), ga + i * k, k);
        }
      },
      KernelGrain(k * n));
}

void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n) {
  // gb[p,:] += sum_i a[i,p] * g[i,:], partitioned over p. Within a chunk the
  // i-outer loop applies g's rows in ascending order, matching the serial
  // accumulation order per output element; the zero-skip is preserved from
  // the serial version (skipped terms contribute nothing, not even +0).
  if (n == 1) {
    // gb is a column: each gb[p] takes one scalar term per row, applied in
    // place in the same ascending-i order, with the same zero-skip.
    common::ThreadPool::Global().ParallelFor(
        0, k,
        [&](int64_t p_begin, int64_t p_end) {
          for (int64_t i = 0; i < m; ++i) {
            const float gi = g[i];
            const float* arow = a + i * k;
            for (int64_t p = p_begin; p < p_end; ++p) {
              const float av = arow[p];
              if (av != 0.0f) gb[p] += av * gi;
            }
          }
        },
        KernelGrain(m));
    return;
  }
  const IsaLevel isa = ActiveIsa();
  common::ThreadPool::Global().ParallelFor(
      0, k,
      [&](int64_t p_begin, int64_t p_end) {
        for (int64_t i = 0; i < m; ++i) {
          const float* grow = g + i * n;
          const float* arow = a + i * k;
          for (int64_t p = p_begin; p < p_end; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            span::Axpy(isa, av, grow, gb + p * n, n);
          }
        }
      },
      KernelGrain(m * n));
}

}  // namespace rowaxpy

}  // namespace desalign::tensor::kernels
