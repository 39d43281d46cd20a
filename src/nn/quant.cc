#include "nn/quant.h"

#include <cmath>
#include <cstring>


namespace desalign::nn {

using common::Status;

const char* DtypeName(TensorDtype dtype) {
  switch (dtype) {
    case TensorDtype::kFloat32:
      return "fp32";
    case TensorDtype::kInt8:
      return "int8";
    case TensorDtype::kBf16:
      return "bf16";
  }
  return "unknown";
}

common::Result<TensorDtype> ParseDtype(const std::string& name) {
  if (name == "fp32" || name == "float32") return TensorDtype::kFloat32;
  if (name == "int8") return TensorDtype::kInt8;
  if (name == "bf16" || name == "bfloat16") return TensorDtype::kBf16;
  return Status::InvalidArgument("unknown dtype '" + name +
                                 "' (expected fp32|int8|bf16)");
}

size_t DtypeBytes(TensorDtype dtype) {
  switch (dtype) {
    case TensorDtype::kFloat32:
      return sizeof(float);
    case TensorDtype::kInt8:
      return sizeof(int8_t);
    case TensorDtype::kBf16:
      return sizeof(uint16_t);
  }
  return 0;
}

namespace quant {

Status QuantizeRow(const float* row, int64_t d, int8_t* codes,
                   float* scale) {
  float maxabs = 0.0f;
  for (int64_t j = 0; j < d; ++j) {
    if (!std::isfinite(row[j])) {
      // Reject, never saturate: a NaN/inf embedding coordinate is a
      // training bug, and +/-127 codes would keep serving it silently.
      return Status::InvalidArgument(
          "cannot quantize row: non-finite value at column " +
          std::to_string(j));
    }
    const float a = std::fabs(row[j]);
    if (a > maxabs) maxabs = a;
  }
  if (maxabs == 0.0f) {
    *scale = 0.0f;
    for (int64_t j = 0; j < d; ++j) codes[j] = 0;
    return Status::Ok();
  }
  const float s = maxabs / 127.0f;
  *scale = s;
  for (int64_t j = 0; j < d; ++j) {
    // Round half away from zero via floor/ceil: deterministic regardless
    // of the process FP rounding mode, unlike lrintf.
    const float v = row[j] / s;
    float r = v >= 0.0f ? std::floor(v + 0.5f) : std::ceil(v - 0.5f);
    if (r > 127.0f) r = 127.0f;
    if (r < -127.0f) r = -127.0f;
    codes[j] = static_cast<int8_t>(r);
  }
  return Status::Ok();
}

void DequantizeRow(const int8_t* codes, int64_t d, float scale, float* out) {
  for (int64_t j = 0; j < d; ++j) {
    out[j] = scale * static_cast<float>(codes[j]);
  }
}

uint16_t Bf16FromFloat(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    // NaN: truncate but force a mantissa bit so it stays NaN (quiet).
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round to nearest, ties to even: add 0x7fff plus the lsb of the result.
  bits += 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<uint16_t>(bits >> 16);
}

void Bf16EncodeRow(const float* row, int64_t d, uint16_t* out) {
  for (int64_t j = 0; j < d; ++j) out[j] = Bf16FromFloat(row[j]);
}

void Bf16DecodeRow(const uint16_t* in, int64_t d, float* out) {
  for (int64_t j = 0; j < d; ++j) out[j] = FloatFromBf16(in[j]);
}

}  // namespace quant

size_t QuantTensorBytes(const QuantTensor& q) {
  switch (q.dtype) {
    case TensorDtype::kFloat32:
      return q.f32.size() * sizeof(float);
    case TensorDtype::kInt8:
      return q.codes.size() * sizeof(int8_t) +
             q.scales.size() * sizeof(float);
    case TensorDtype::kBf16:
      return q.bf16.size() * sizeof(uint16_t);
  }
  return 0;
}

common::Result<QuantTensor> QuantizeTensor(const tensor::Tensor& t,
                                           TensorDtype dtype) {
  QuantTensor q;
  q.dtype = dtype;
  q.rows = t.rows();
  q.cols = t.cols();
  const int64_t rows = q.rows;
  const int64_t cols = q.cols;
  const float* data = t.data().data();
  switch (dtype) {
    case TensorDtype::kFloat32:
      q.f32 = t.data();
      break;
    case TensorDtype::kInt8:
      q.codes.resize(static_cast<size_t>(rows * cols));
      q.scales.resize(static_cast<size_t>(rows));
      for (int64_t r = 0; r < rows; ++r) {
        const Status status =
            quant::QuantizeRow(data + r * cols, cols,
                               q.codes.data() + r * cols,
                               q.scales.data() + r);
        if (!status.ok()) {
          return Status::InvalidArgument("row " + std::to_string(r) + ": " +
                                         status.message());
        }
      }
      break;
    case TensorDtype::kBf16:
      q.bf16.resize(static_cast<size_t>(rows * cols));
      quant::Bf16EncodeRow(data, rows * cols, q.bf16.data());
      break;
  }
  return q;
}

}  // namespace desalign::nn
