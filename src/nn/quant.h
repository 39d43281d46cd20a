#ifndef DESALIGN_NN_QUANT_H_
#define DESALIGN_NN_QUANT_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace desalign::nn {

/// Storage datatype of one checkpoint tensor (and of one serve-side
/// embedding table). The numeric ids are the on-disk dtype tags of the v3
/// checkpoint format and must never be renumbered.
enum class TensorDtype : uint8_t {
  kFloat32 = 0,  ///< plain IEEE-754 binary32, the training format
  kInt8 = 1,     ///< per-row symmetric int8 codes + one fp32 scale per row
  kBf16 = 2,     ///< bfloat16: the top 16 bits of the fp32 pattern
};

/// "fp32" / "int8" / "bf16".
const char* DtypeName(TensorDtype dtype);

/// Parses "fp32" / "int8" / "bf16" (the --dtype CLI flag).
common::Result<TensorDtype> ParseDtype(const std::string& name);

/// Per-element storage bytes of `dtype` (int8 excludes the per-row scale;
/// use QuantTensorBytes for the full footprint).
size_t DtypeBytes(TensorDtype dtype);

namespace quant {

/// Quantizes one row to per-row symmetric int8: scale = maxabs / 127 and
/// codes[j] = round-half-away-from-zero(row[j] / scale), clamped to
/// [-127, 127]. The scheme is symmetric, so the zero point is identically
/// 0 and is not stored; rows headed for this path are roughly
/// zero-centered (L2-normalized embeddings), which symmetric quantization
/// serves without the cross-term corrections an asymmetric zero point
/// would force into the integer dot product.
///
/// Guarantees |row[j] - scale * codes[j]| <= scale / 2 (within float
/// rounding) for every element; an all-zero row gets scale 0 and all-zero
/// codes, which dequantizes back to exact zeros.
///
/// Non-finite input policy: REJECT. A row containing NaN or +/-inf
/// returns InvalidArgument and writes nothing — a non-finite embedding is
/// a training bug that saturating to +/-127 would silently serve forever.
common::Status QuantizeRow(const float* row, int64_t d, int8_t* codes,
                           float* scale);

/// Inverse of QuantizeRow: out[j] = scale * codes[j]. Pure scalar float
/// math in a fixed order, so every caller (re-rank, k-means, brute-force
/// reference) reconstructs bit-identical values on every ISA.
void DequantizeRow(const int8_t* codes, int64_t d, float scale, float* out);

/// fp32 -> bf16 with round-to-nearest-even; NaN stays a (quiet) NaN.
uint16_t Bf16FromFloat(float v);

/// bf16 -> fp32. Exact: the bf16 pattern is the fp32 pattern with the low
/// 16 mantissa bits zero, so decode is a bit shift with no rounding.
/// Inline because the bf16 serving scan decodes inside its dot product.
inline float FloatFromBf16(uint16_t bits) {
  return std::bit_cast<float>(static_cast<uint32_t>(bits) << 16);
}

void Bf16EncodeRow(const float* row, int64_t d, uint16_t* out);
void Bf16DecodeRow(const uint16_t* in, int64_t d, float* out);

}  // namespace quant

/// One dtype-tagged tensor as stored by the v3 checkpoint format. Exactly
/// the payload vector(s) matching `dtype` are populated.
struct QuantTensor {
  TensorDtype dtype = TensorDtype::kFloat32;
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<float> f32;       ///< kFloat32: rows * cols values
  std::vector<int8_t> codes;    ///< kInt8: rows * cols codes
  std::vector<float> scales;    ///< kInt8: one scale per row
  std::vector<uint16_t> bf16;   ///< kBf16: rows * cols values
};

/// Storage footprint of the populated payload(s), scales included.
size_t QuantTensorBytes(const QuantTensor& q);

/// Quantizes an fp32 tensor row-wise to `dtype`. kFloat32 copies, kInt8
/// applies quant::QuantizeRow per row (and inherits its reject-non-finite
/// policy), kBf16 rounds every element to nearest-even.
common::Result<QuantTensor> QuantizeTensor(const tensor::Tensor& t,
                                           TensorDtype dtype);

}  // namespace desalign::nn

#endif  // DESALIGN_NN_QUANT_H_
