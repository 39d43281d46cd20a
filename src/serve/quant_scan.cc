#include <cmath>

#include "common/hot.h"
#include "nn/quant.h"
#include "serve/quant_scan_internal.h"
#include "serve/scoring.h"
#include "tensor/kernels/dispatch.h"

namespace desalign::serve::scoring {

DESALIGN_HOT int32_t DotI8(const int8_t* a, const int8_t* b, int64_t d) {
#if DESALIGN_SERVE_HAVE_AVX2
  if (tensor::kernels::ActiveIsa() == tensor::kernels::IsaLevel::kAvx2) {
    return internal::DotI8Avx2(a, b, d);
  }
#endif
  return internal::DotI8Scalar(a, b, d);
}

Int8Query QuantizeQuery(const float* q, int64_t d) {
  Int8Query out;
  out.codes.resize(static_cast<size_t>(d));
  float maxabs = 0.0f;
  for (int64_t j = 0; j < d; ++j) {
    const float v = q[j];
    if (!std::isfinite(v)) continue;  // sanitized to code 0 below
    const float a = std::fabs(v);
    if (a > maxabs) maxabs = a;
  }
  if (maxabs == 0.0f) {
    out.scale = 0.0f;
    return out;  // codes already zero-initialised by resize
  }
  const float s = maxabs / 127.0f;
  out.scale = s;
  for (int64_t j = 0; j < d; ++j) {
    const float v = q[j];
    if (!std::isfinite(v)) {
      out.codes[static_cast<size_t>(j)] = 0;
      continue;
    }
    // Same round-half-away-from-zero as nn::quant::QuantizeRow so query
    // and table codes come from one quantizer.
    const float t = v / s;
    float r = t >= 0.0f ? std::floor(t + 0.5f) : std::ceil(t - 0.5f);
    if (r > 127.0f) r = 127.0f;
    if (r < -127.0f) r = -127.0f;
    out.codes[static_cast<size_t>(j)] = static_cast<int8_t>(r);
  }
  return out;
}

}  // namespace desalign::serve::scoring
