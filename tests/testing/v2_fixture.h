#ifndef DESALIGN_TESTS_TESTING_V2_FIXTURE_H_
#define DESALIGN_TESTS_TESTING_V2_FIXTURE_H_

// The committed v2 training checkpoint, tests/nn/testdata/v2_training.dckpt,
// and the values it holds. No writer produces v2 any more: the file was
// written by the v2 SaveCheckpoint (the format every training checkpoint
// directory and fp32 embedding store used before v3 became the only
// written format) from exactly the checkpoint V2FixtureExpected() builds,
// so a reader can assert it loads bit-exactly.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/checkpoint.h"

namespace desalign::testing {

inline std::string V2FixturePath() {
  return std::string(DESALIGN_TESTDATA_DIR) + "/v2_training.dckpt";
}

/// The RNG state stored in the fixture: seed 2024 advanced by ten
/// UniformInt(1000) draws. Continue the returned engine to get the draws
/// a resumed run must reproduce.
inline common::Rng V2FixtureRng() {
  common::Rng rng(2024);
  for (int i = 0; i < 10; ++i) rng.UniformInt(1000);
  return rng;
}

/// The fixture's contents: epoch 6; fp32 tensors 2x3 and 1x4 holding
/// 0.375 k - 1.5 for k = 0..9 across both; AdamW step 42 with moments
/// m = 0.5 k - 2 and v = 0.0625 k; the RNG above; best loss 0.375,
/// stall 3, lr scale 0.5. Every value is exact in binary32.
inline nn::TrainingCheckpoint V2FixtureExpected() {
  nn::TrainingCheckpoint ckpt;
  ckpt.epoch = 6;
  ckpt.has_optimizer = true;
  ckpt.opt_step = 42;
  const int64_t shapes[2][2] = {{2, 3}, {1, 4}};
  int k = 0;
  for (const auto& shape : shapes) {
    nn::QuantTensor record;
    record.rows = shape[0];
    record.cols = shape[1];
    std::vector<float> m;
    std::vector<float> v;
    for (int64_t i = 0; i < shape[0] * shape[1]; ++i, ++k) {
      const float x = static_cast<float>(k);
      record.f32.push_back(0.375f * x - 1.5f);
      m.push_back(0.5f * x - 2.0f);
      v.push_back(0.0625f * x);
    }
    ckpt.tensors.push_back(std::move(record));
    ckpt.opt_m.push_back(std::move(m));
    ckpt.opt_v.push_back(std::move(v));
  }
  ckpt.has_rng = true;
  ckpt.rng_state = V2FixtureRng().SerializeState();
  ckpt.has_train_state = true;
  ckpt.best_loss = 0.375f;
  ckpt.stall = 3;
  ckpt.lr_scale = 0.5f;
  return ckpt;
}

/// Bit patterns of `values`, so -0.0 / 0.0 and NaN payloads compare
/// exactly.
inline std::vector<uint32_t> Bits(const std::vector<float>& values) {
  std::vector<uint32_t> bits(values.size());
  if (!values.empty()) {
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  }
  return bits;
}

/// Expects `got` to equal `want` field by field, floats bit for bit.
inline void ExpectSameCheckpoint(const nn::TrainingCheckpoint& got,
                                 const nn::TrainingCheckpoint& want) {
  EXPECT_EQ(got.epoch, want.epoch);
  ASSERT_EQ(got.tensors.size(), want.tensors.size());
  for (size_t i = 0; i < want.tensors.size(); ++i) {
    const nn::QuantTensor& a = got.tensors[i];
    const nn::QuantTensor& b = want.tensors[i];
    EXPECT_EQ(a.dtype, b.dtype) << "tensor " << i;
    EXPECT_EQ(a.rows, b.rows) << "tensor " << i;
    EXPECT_EQ(a.cols, b.cols) << "tensor " << i;
    EXPECT_EQ(Bits(a.f32), Bits(b.f32)) << "tensor " << i;
    EXPECT_EQ(a.codes, b.codes) << "tensor " << i;
    EXPECT_EQ(Bits(a.scales), Bits(b.scales)) << "tensor " << i;
    EXPECT_EQ(a.bf16, b.bf16) << "tensor " << i;
  }
  EXPECT_EQ(got.has_optimizer, want.has_optimizer);
  EXPECT_EQ(got.opt_step, want.opt_step);
  ASSERT_EQ(got.opt_m.size(), want.opt_m.size());
  ASSERT_EQ(got.opt_v.size(), want.opt_v.size());
  for (size_t i = 0; i < want.opt_m.size(); ++i) {
    EXPECT_EQ(Bits(got.opt_m[i]), Bits(want.opt_m[i])) << "m " << i;
    EXPECT_EQ(Bits(got.opt_v[i]), Bits(want.opt_v[i])) << "v " << i;
  }
  EXPECT_EQ(got.has_rng, want.has_rng);
  EXPECT_EQ(got.rng_state, want.rng_state);
  EXPECT_EQ(got.has_train_state, want.has_train_state);
  EXPECT_EQ(Bits({got.best_loss, got.lr_scale}),
            Bits({want.best_loss, want.lr_scale}));
  EXPECT_EQ(got.stall, want.stall);
}

}  // namespace desalign::testing

#endif  // DESALIGN_TESTS_TESTING_V2_FIXTURE_H_
