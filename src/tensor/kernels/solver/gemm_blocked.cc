#include "tensor/kernels/solver/gemm_blocked.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"
#include "tensor/kernels/buffer_pool.h"
#include "tensor/kernels/elementwise.h"
#include "tensor/kernels/internal.h"
#include "tensor/kernels/rowwise.h"

namespace desalign::tensor::kernels::solver::blocked {

namespace detail {
// Defined in gemm_blocked_avx2.cc under #pragma GCC target("avx2").
// ap is an (8 x kc) packed tile (ap[p*8 + r]), bp a (kc x 8) packed panel
// (bp[p*8 + j]), c an 8x8 tile at row stride ldc.
void MicroKernel8x8Avx2(const float* ap, const float* bp, float* c,
                        int64_t ldc, int64_t kc, bool skip_zero_a);
}  // namespace detail

namespace {

constexpr int64_t kMr = 8;    // micro-tile rows (register-blocked in C)
constexpr int64_t kNr = 8;    // micro-tile cols (one AVX2 float vector)
constexpr int64_t kKc = 256;  // K block: an A tile is 8 x 256 = 8 KB (L1)
constexpr int64_t kNc = 2048; // N block: a B panel is at most 2 MB (L2/L3)

// Scalar micro-kernel over a (rows x cols) tile, rows/cols <= 8. Also the
// edge-tile path under AVX2. ap is packed (ap[p*rows + r]), bp packed
// (bp[p*cols + j]). The per-element chain — ascending p, separate
// round(mul) and round(add), optional zero-skip — is exactly the vector
// kernel's and the reference's.
template <bool kSkipZeroA>
void MicroScalar(const float* ap, const float* bp, float* c, int64_t ldc,
                 int64_t kc, int64_t rows, int64_t cols) {
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * cols;
    const float* acol = ap + p * rows;
    for (int64_t r = 0; r < rows; ++r) {
      const float av = acol[r];
      if (kSkipZeroA && av == 0.0f) continue;
      float* crow = c + r * ldc;
      for (int64_t j = 0; j < cols; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

// Packs a (rows x kc) slice of `a` (row stride lda) into ap[p*rows + r].
// Returns whether the slice holds a zero (+0.0 or -0.0): only such a tile
// needs the zero-skip kernels, since the skip never fires on any other.
bool PackATile(const float* a, int64_t lda, int64_t rows, int64_t kc,
               float* ap) {
  bool has_zero = false;
  for (int64_t r = 0; r < rows; ++r) {
    const float* arow = a + r * lda;
    for (int64_t p = 0; p < kc; ++p) {
      ap[p * rows + r] = arow[p];
      has_zero |= arow[p] == 0.0f;
    }
  }
  return has_zero;
}

// Packs a (kc x nc) slice of `b` (row stride ldb) into kNr-wide micro
// panels: panel q starts at bp + q*kc*kNr and holds bp[p*width + j] for its
// `width` columns (only the last panel may be narrower).
void PackBPanel(const float* b, int64_t ldb, int64_t kc, int64_t nc,
                float* bp) {
  const int64_t panels = (nc + kNr - 1) / kNr;
  for (int64_t q = 0; q < panels; ++q) {
    const int64_t j0 = q * kNr;
    const int64_t width = std::min(kNr, nc - j0);
    float* dst = bp + q * kc * kNr;
    for (int64_t p = 0; p < kc; ++p) {
      const float* brow = b + p * ldb + j0;
      for (int64_t j = 0; j < width; ++j) {
        dst[p * width + j] = brow[j];
      }
    }
  }
}

}  // namespace

void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n, bool skip_zero_a, IsaLevel isa) {
  if (m <= 0 || k <= 0 || n <= 0) return;
#if DESALIGN_KERNELS_HAVE_AVX2
  const bool use_avx2 = (isa == IsaLevel::kAvx2);
#else
  (void)isa;
#endif
  const int64_t row_tiles = (m + kMr - 1) / kMr;
  // Grain in row tiles; KernelGrain honors the forced test grain so the
  // bit-exactness suite exercises multi-chunk tilings on tiny shapes.
  const int64_t grain =
      std::max<int64_t>(1, KernelGrain(2 * k * n) / kMr);
  auto& pool = common::ThreadPool::Global();

  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    const int64_t col_panels = (nc + kNr - 1) / kNr;
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      // B is packed once per (jc, pc) block by the calling thread; row
      // tiles then share it read-only.
      PooledBuffer bpack(static_cast<size_t>(kc * nc), /*zero=*/false);
      PackBPanel(b + pc * n + jc, n, kc, nc, bpack.data());
      const float* bp_base = bpack.data();

      pool.ParallelFor(
          0, row_tiles,
          [&](int64_t tile_begin, int64_t tile_end) {
            PooledBuffer apack(static_cast<size_t>(kMr * kc),
                               /*zero=*/false);
            for (int64_t t = tile_begin; t < tile_end; ++t) {
              const int64_t i0 = t * kMr;
              const int64_t rows = std::min(kMr, m - i0);
              const bool skip =
                  PackATile(a + i0 * k + pc, k, rows, kc, apack.data()) &&
                  skip_zero_a;
              for (int64_t q = 0; q < col_panels; ++q) {
                const int64_t j0 = q * kNr;
                const int64_t cols = std::min(kNr, nc - j0);
                const float* bp = bp_base + q * kc * kNr;
                float* ctile = c + i0 * n + jc + j0;
#if DESALIGN_KERNELS_HAVE_AVX2
                if (use_avx2 && rows == kMr && cols == kNr) {
                  detail::MicroKernel8x8Avx2(apack.data(), bp, ctile, n, kc,
                                             skip);
                } else
#endif
                if (skip) {
                  MicroScalar<true>(apack.data(), bp, ctile, n, kc, rows,
                                    cols);
                } else {
                  MicroScalar<false>(apack.data(), bp, ctile, n, kc, rows,
                                     cols);
                }
              }
            }
          },
          grain);
    }
  }
}

void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n, IsaLevel isa) {
  // reference.cc zeroes y then accumulates i,p,j with the zero-a skip; the
  // memset covers k == 0 the same way the reference's empty p-loop does.
  std::memset(y, 0, static_cast<size_t>(m * n) * sizeof(float));
  GemmAccumulate(a, b, y, m, k, n, /*skip_zero_a=*/true, isa);
}

void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n, IsaLevel isa) {
  // reference.cc computes a fresh float dot per (i,p) over ascending j —
  // no zero-skip — then adds it to ga once. Reproduced as: tmp = g·bT
  // accumulated from zero (ascending-j chain preserved across KC blocks by
  // GemmAccumulate's running C), then a single elementwise ga += tmp. The
  // n == 0 case still adds +0.0 into every ga element, exactly like the
  // reference's empty dot (-0.0 + 0.0 flips to +0.0; skipping the add
  // would not be bit-exact).
  if (m <= 0 || k <= 0) return;
  PooledBuffer tmp(static_cast<size_t>(m * k), /*zero=*/true);
  if (n > 0) {
    PooledBuffer bt(static_cast<size_t>(n * k), /*zero=*/false);
    Transpose(b, bt.data(), k, n);
    GemmAccumulate(g, bt.data(), tmp.data(), m, n, k,
                   /*skip_zero_a=*/false, isa);
  }
  Accumulate(tmp.data(), ga, m * k);
}

void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n, IsaLevel isa) {
  // reference.cc accumulates straight into the caller's gb, ascending i,
  // skipping zero a-elements: exactly GemmAccumulate over aT (packed once)
  // with i as the reduction dimension and gb as the live accumulator.
  if (m <= 0 || k <= 0 || n <= 0) return;
  PooledBuffer at(static_cast<size_t>(m * k), /*zero=*/false);
  Transpose(a, at.data(), m, k);
  GemmAccumulate(at.data(), g, gb, k, m, n, /*skip_zero_a=*/true, isa);
}

}  // namespace desalign::tensor::kernels::solver::blocked
