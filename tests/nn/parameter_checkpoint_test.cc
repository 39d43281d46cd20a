// Model parameters to and from checkpoint files: SaveCheckpoint of
// ParameterRecords, then LoadCheckpoint + RestoreParameters (the pair
// FusionAlignModel::SaveCheckpoint / LoadCheckpoint and the training
// loop's resume are built on). A load that fails for any reason — count,
// dtype or shape mismatch, a corrupt or missing file — must leave every
// parameter untouched.

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "align/fusion_model.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "kg/synthetic.h"
#include "nn/checkpoint.h"
#include "nn/quant.h"
#include "tensor/init.h"
#include "testing/v2_fixture.h"

namespace desalign::nn {
namespace {

using tensor::Tensor;
using tensor::TensorPtr;

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::Global().Clear();
    path_ = (std::filesystem::temp_directory_path() /
             ("desalign_ckpt_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override {
    common::FaultInjector::Global().Clear();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

std::vector<TensorPtr> MakeParams(uint64_t seed) {
  common::Rng rng(seed);
  std::vector<TensorPtr> params = {
      Tensor::Create(3, 4, true),
      Tensor::Create(1, 7, true),
      Tensor::Create(5, 5, true),
  };
  for (auto& p : params) tensor::FillNormal(*p, rng);
  return params;
}

common::Status SaveParams(const std::vector<TensorPtr>& params,
                          const std::string& path) {
  TrainingCheckpoint ckpt;
  ckpt.tensors = ParameterRecords(params);
  return SaveCheckpoint(ckpt, path);
}

// What FusionAlignModel::LoadCheckpoint does with its parameter list.
common::Status LoadParams(const std::vector<TensorPtr>& params,
                          const std::string& path) {
  DESALIGN_ASSIGN_OR_RETURN(TrainingCheckpoint ckpt, LoadCheckpoint(path));
  return RestoreParameters(ckpt.tensors, params);
}

TEST_F(SerializeTest, RoundTripRestoresExactValues) {
  auto original = MakeParams(1);
  ASSERT_TRUE(SaveParams(original, path_).ok());
  auto restored = MakeParams(2);  // different values, same shapes
  ASSERT_TRUE(LoadParams(restored, path_).ok());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i]->data(), original[i]->data());
  }
}

TEST_F(SerializeTest, SaveFaultSiteSurfacesAsStatus) {
  auto params = MakeParams(3);
  ASSERT_TRUE(
      common::FaultInjector::Global().Configure("ckpt.write.open:fail").ok());
  EXPECT_FALSE(SaveParams(params, path_).ok());
  EXPECT_FALSE(std::filesystem::exists(path_));
  common::FaultInjector::Global().Clear();
  ASSERT_TRUE(SaveParams(params, path_).ok());
  auto restored = MakeParams(4);
  ASSERT_TRUE(LoadParams(restored, path_).ok());
  EXPECT_EQ(restored[0]->data(), params[0]->data());
}

TEST_F(SerializeTest, CountMismatchFails) {
  auto params = MakeParams(3);
  ASSERT_TRUE(SaveParams(params, path_).ok());
  params.pop_back();
  auto status = LoadParams(params, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, ShapeMismatchFailsWithoutMutation) {
  auto params = MakeParams(4);
  ASSERT_TRUE(SaveParams(params, path_).ok());
  auto wrong = MakeParams(5);
  wrong[1] = Tensor::Create(2, 7, true);
  const auto before = wrong[0]->data();
  ASSERT_FALSE(LoadParams(wrong, path_).ok());
  EXPECT_EQ(wrong[0]->data(), before);  // no partial load
}

TEST_F(SerializeTest, LastTensorShapeMismatchFailsWithoutMutation) {
  // Regression: an eager loader that copies tensors as it checks them
  // would have already overwritten tensors 0 and 1 by the time it notices
  // the LAST tensor's shape is wrong. All shapes must be validated before
  // any data moves.
  auto params = MakeParams(14);
  ASSERT_TRUE(SaveParams(params, path_).ok());
  auto wrong = MakeParams(15);
  wrong.back() = Tensor::Create(5, 6, true);  // file has 5x5
  const auto before0 = wrong[0]->data();
  const auto before1 = wrong[1]->data();
  ASSERT_FALSE(LoadParams(wrong, path_).ok());
  EXPECT_EQ(wrong[0]->data(), before0);
  EXPECT_EQ(wrong[1]->data(), before1);
}

TEST_F(SerializeTest, LastTensorShapeMismatchFailsForV2Checkpoints) {
  // Same no-partial-write guarantee for a v2 file (the committed fixture
  // holds a 2x3 and a 1x4 tensor).
  std::vector<TensorPtr> wrong = {Tensor::Create(2, 3, true),
                                  Tensor::Create(1, 5, true)};
  common::Rng rng(17);
  for (auto& p : wrong) tensor::FillNormal(*p, rng);
  const auto before0 = wrong[0]->data();
  const auto before1 = wrong[1]->data();
  ASSERT_FALSE(LoadParams(wrong, testing::V2FixturePath()).ok());
  EXPECT_EQ(wrong[0]->data(), before0);
  EXPECT_EQ(wrong[1]->data(), before1);
}

TEST_F(SerializeTest, QuantizedRecordFailsWithoutMutation) {
  // Model parameters are fp32; an int8 record (even of the right shape)
  // must not be dequantized into them.
  auto params = MakeParams(18);
  TrainingCheckpoint ckpt;
  ckpt.tensors = ParameterRecords(params);
  auto q = QuantizeTensor(*params[2], TensorDtype::kInt8);
  ASSERT_TRUE(q.ok());
  ckpt.tensors[2] = std::move(q).value();
  ASSERT_TRUE(SaveCheckpoint(ckpt, path_).ok());
  auto fresh = MakeParams(19);
  const auto before0 = fresh[0]->data();
  auto status = LoadParams(fresh, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("int8"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(fresh[0]->data(), before0);
}

TEST_F(SerializeTest, GarbageFileRejected) {
  std::ofstream(path_) << "definitely not a checkpoint";
  auto params = MakeParams(6);
  auto status = LoadParams(params, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kIoError);
}

TEST_F(SerializeTest, MissingFileRejected) {
  auto params = MakeParams(7);
  EXPECT_FALSE(LoadParams(params, path_ + ".nope").ok());
}

TEST_F(SerializeTest, TruncatedFileRejectedWithoutMutation) {
  auto params = MakeParams(8);
  ASSERT_TRUE(SaveParams(params, path_).ok());
  // Chop the file mid-way through the last tensor's payload.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 17);
  auto fresh = MakeParams(9);
  const auto before = fresh[2]->data();
  auto status = LoadParams(fresh, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kIoError);
  EXPECT_EQ(fresh[2]->data(), before);  // params left intact
}

TEST_F(SerializeTest, FusionModelCheckpointReproducesDecode) {
  kg::SyntheticSpec spec;
  spec.num_entities = 100;
  spec.seed = 21;
  auto data = kg::GenerateSyntheticPair(spec);

  align::FusionModelConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 15;
  align::FusionAlignModel trained(cfg);
  trained.Fit(data);
  auto expected = trained.DecodeSimilarity(data);
  ASSERT_TRUE(trained.SaveCheckpoint(path_).ok());

  align::FusionAlignModel restored(cfg);
  // Loading before Warmup is a precondition failure.
  EXPECT_EQ(restored.LoadCheckpoint(path_).code(),
            common::StatusCode::kFailedPrecondition);
  restored.Warmup(data);
  ASSERT_TRUE(restored.LoadCheckpoint(path_).ok());
  auto actual = restored.DecodeSimilarity(data);
  ASSERT_EQ(actual->size(), expected->size());
  for (int64_t i = 0; i < actual->size(); ++i) {
    EXPECT_NEAR(actual->data()[i], expected->data()[i], 1e-6);
  }
}

TEST_F(SerializeTest, SaveBeforePrepareFails) {
  align::FusionModelConfig cfg;
  align::FusionAlignModel model(cfg);
  EXPECT_EQ(model.SaveCheckpoint(path_).code(),
            common::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace desalign::nn
