// AVX2 body of the int8 candidate-scan dot product. Compiled with 256-bit
// codegen via the target pragma (the build itself stays baseline x86-64);
// quant_scan.cc only calls in here after runtime dispatch confirmed AVX2.
// The reduction is pure int32 arithmetic, so unlike the float kernels no
// lane-independence argument is needed: integer addition is associative and
// the result is bit-identical to the scalar loop by construction.

#include "common/hot.h"
#include "serve/quant_scan_internal.h"

#if DESALIGN_SERVE_HAVE_AVX2

#include <immintrin.h>

#pragma GCC push_options
#pragma GCC target("avx2")

namespace desalign::serve::scoring::internal {

DESALIGN_HOT int32_t DotI8Avx2(const int8_t* a, const int8_t* b,
                               int64_t d) {
  __m256i acc = _mm256_setzero_si256();
  int64_t c = 0;
  for (; c + 16 <= d; c += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + c));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + c));
    // Sign-extend to 16 lanes of i16; madd multiplies pairwise and adds
    // adjacent products into 8 lanes of i32. |code| <= 127, so each pair
    // sum is at most 2 * 127^2 and cannot overflow i16->i32 madd.
    const __m256i wa = _mm256_cvtepi8_epi16(va);
    const __m256i wb = _mm256_cvtepi8_epi16(vb);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
  }
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int32_t s = 0;
  for (int i = 0; i < 8; ++i) s += lanes[i];
  return s + DotI8Scalar(a + c, b + c, d - c);
}

}  // namespace desalign::serve::scoring::internal

#pragma GCC pop_options

#endif  // DESALIGN_SERVE_HAVE_AVX2
