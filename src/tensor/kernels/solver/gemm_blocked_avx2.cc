// The 8x8 AVX2 microkernel for the blocked GEMM solver, isolated in its own
// translation unit so `#pragma GCC target("avx2")` applies only here (the
// same scheme avx2.cc uses for the span bodies). The scalar twin lives in
// gemm_blocked.cc; runtime dispatch picks between them via ActiveIsa().
//
// Deliberately no _mm256_fmadd_ps anywhere: the build sets
// -ffp-contract=off and the bit-exactness contract requires the same two
// roundings (mul, then add) the scalar chain performs.

#include <cstdint>

#include "tensor/kernels/internal.h"

#if DESALIGN_KERNELS_HAVE_AVX2

#include <immintrin.h>

#pragma GCC push_options
#pragma GCC target("avx2")

namespace desalign::tensor::kernels::solver::blocked::detail {

namespace {

// kSkipZeroA keeps the reference's skip of zero a-elements without a
// branch: the sum is formed for every row and a blend puts the old
// accumulator back where a[r,p] == 0 (EQ_OQ: +0.0 and -0.0 compare equal,
// NaN does not), so a skipped term leaves the accumulator's bits untouched
// even when b holds Inf/NaN. A branch per element mispredicts on
// ReLU-like data. Tiles with no zero run the plain kernel, which is the
// same chain because the skip never fires there.
template <bool kSkipZeroA>
inline void Micro8x8(const float* __restrict__ ap,
                     const float* __restrict__ bp, float* __restrict__ c,
                     int64_t ldc, int64_t kc) {
  // The full C tile stays in registers across the KC reduction — the whole
  // point of the blocking: one load+store of C per (tile, KC block) instead
  // of the row-axpy kernel's read-modify-write of y per reduction step.
  __m256 acc0 = _mm256_loadu_ps(c + 0 * ldc);
  __m256 acc1 = _mm256_loadu_ps(c + 1 * ldc);
  __m256 acc2 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 acc3 = _mm256_loadu_ps(c + 3 * ldc);
  __m256 acc4 = _mm256_loadu_ps(c + 4 * ldc);
  __m256 acc5 = _mm256_loadu_ps(c + 5 * ldc);
  __m256 acc6 = _mm256_loadu_ps(c + 6 * ldc);
  __m256 acc7 = _mm256_loadu_ps(c + 7 * ldc);
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 bv = _mm256_loadu_ps(bp + p * 8);
    const float* acol = ap + p * 8;
#define DESALIGN_GEMM_ROW(R)                                               \
  do {                                                                     \
    const __m256 av = _mm256_broadcast_ss(acol + (R));                     \
    const __m256 sum = _mm256_add_ps(acc##R, _mm256_mul_ps(av, bv));       \
    acc##R = kSkipZeroA ? _mm256_blendv_ps(                                \
                              sum, acc##R,                                 \
                              _mm256_cmp_ps(av, zero, _CMP_EQ_OQ))         \
                        : sum;                                             \
  } while (false)
    DESALIGN_GEMM_ROW(0);
    DESALIGN_GEMM_ROW(1);
    DESALIGN_GEMM_ROW(2);
    DESALIGN_GEMM_ROW(3);
    DESALIGN_GEMM_ROW(4);
    DESALIGN_GEMM_ROW(5);
    DESALIGN_GEMM_ROW(6);
    DESALIGN_GEMM_ROW(7);
#undef DESALIGN_GEMM_ROW
  }
  _mm256_storeu_ps(c + 0 * ldc, acc0);
  _mm256_storeu_ps(c + 1 * ldc, acc1);
  _mm256_storeu_ps(c + 2 * ldc, acc2);
  _mm256_storeu_ps(c + 3 * ldc, acc3);
  _mm256_storeu_ps(c + 4 * ldc, acc4);
  _mm256_storeu_ps(c + 5 * ldc, acc5);
  _mm256_storeu_ps(c + 6 * ldc, acc6);
  _mm256_storeu_ps(c + 7 * ldc, acc7);
}

}  // namespace

void MicroKernel8x8Avx2(const float* ap, const float* bp, float* c,
                        int64_t ldc, int64_t kc, bool skip_zero_a) {
  if (skip_zero_a) {
    Micro8x8<true>(ap, bp, c, ldc, kc);
  } else {
    Micro8x8<false>(ap, bp, c, ldc, kc);
  }
}

}  // namespace desalign::tensor::kernels::solver::blocked::detail

#pragma GCC pop_options

#endif  // DESALIGN_KERNELS_HAVE_AVX2
