#include "serve/embedding_store.h"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "nn/checkpoint.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace desalign::serve {
namespace {

using tensor::Tensor;

class EmbeddingStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::Global().Clear();
    path_ = (std::filesystem::temp_directory_path() /
             ("desalign_store_" + std::to_string(::getpid()) + ".ckpt"))
                .string();
  }
  void TearDown() override {
    common::FaultInjector::Global().Clear();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

TEST_F(EmbeddingStoreTest, RowsAreUnitNorm) {
  common::Rng rng(1);
  auto t = Tensor::Create(17, 9);
  for (auto& v : t->data()) v = rng.UniformF(-2.0f, 2.0f);
  const auto store = EmbeddingStore::FromTensor(*t);
  ASSERT_EQ(store.size(), 17);
  ASSERT_EQ(store.dim(), 9);
  for (int64_t r = 0; r < store.size(); ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < store.dim(); ++c) {
      sum += store.row(r)[c] * store.row(r)[c];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST_F(EmbeddingStoreTest, ZeroRowsStayZero) {
  const auto store = EmbeddingStore::FromRows(2, 3, {0, 0, 0, 3, 0, 4});
  EXPECT_EQ(store.row(0)[0], 0.0f);
  EXPECT_EQ(store.row(0)[2], 0.0f);
  EXPECT_NEAR(store.row(1)[0], 0.6f, 1e-6f);
  EXPECT_NEAR(store.row(1)[2], 0.8f, 1e-6f);
}

TEST_F(EmbeddingStoreTest, SaveLoadRoundTripIsExact) {
  common::Rng rng(2);
  auto t = Tensor::Create(23, 8);
  for (auto& v : t->data()) v = rng.UniformF(-1.0f, 1.0f);
  const auto store = EmbeddingStore::FromTensor(*t);
  ASSERT_TRUE(store.Save(path_).ok());
  auto loaded = EmbeddingStore::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), store.size());
  EXPECT_EQ(loaded.value().dim(), store.dim());
  EXPECT_EQ(loaded.value().data(), store.data());
}

TEST_F(EmbeddingStoreTest, LoadSelectsTensorByIndex) {
  auto a = Tensor::FromData(1, 2, {1.0f, 0.0f});
  auto b = Tensor::FromData(2, 2, {0.0f, 1.0f, 1.0f, 0.0f});
  nn::TrainingCheckpoint ckpt;
  ckpt.tensors = nn::ParameterRecords({a, b});
  ASSERT_TRUE(nn::SaveCheckpoint(ckpt, path_).ok());
  auto second = EmbeddingStore::Load(path_, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().size(), 2);
  auto out_of_range = EmbeddingStore::Load(path_, 2);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(EmbeddingStoreTest, LoadMissingFileFailsCleanly) {
  auto loaded = EmbeddingStore::Load(path_ + ".nope");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
}

TEST_F(EmbeddingStoreTest, LoadGarbageFailsCleanly) {
  std::ofstream(path_) << "not a checkpoint at all";
  auto loaded = EmbeddingStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
}

TEST_F(EmbeddingStoreTest, ReloadSwapsInNewSnapshot) {
  auto store = EmbeddingStore::FromRows(2, 3, {1, 0, 0, 0, 1, 0});
  const auto next = EmbeddingStore::FromRows(4, 3, {0, 0, 1, 0, 1, 0,  //
                                                    1, 0, 0, 0, 1, 1});
  ASSERT_TRUE(next.Save(path_).ok());
  ServeStats stats;
  ASSERT_TRUE(store.Reload(path_, ReloadOptions{}, &stats).ok());
  EXPECT_EQ(store.size(), 4);
  EXPECT_EQ(store.data(), next.data());
  EXPECT_EQ(stats.Snapshot().reloads_ok, 1);
  EXPECT_EQ(stats.Snapshot().reloads_failed, 0);
}

TEST_F(EmbeddingStoreTest, ReloadOfCorruptFileKeepsServingLastGood) {
  auto store = EmbeddingStore::FromRows(2, 3, {1, 0, 0, 0, 1, 0});
  const auto before = store.data();
  std::ofstream(path_, std::ios::binary) << "corrupted snapshot bytes";
  ServeStats stats;
  ReloadOptions options;
  options.max_attempts = 2;
  options.backoff_ms = 0.0;
  const auto status = store.Reload(path_, options, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(store.size(), 2);        // old snapshot still intact
  EXPECT_EQ(store.data(), before);   // bit-for-bit
  EXPECT_EQ(stats.Snapshot().reloads_failed, 1);
}

TEST_F(EmbeddingStoreTest, ReloadRetriesThroughTransientReadFault) {
  auto store = EmbeddingStore::FromRows(2, 3, {1, 0, 0, 0, 1, 0});
  const auto next = EmbeddingStore::FromRows(3, 3, {0, 0, 1, 0, 1, 0,  //
                                                    1, 0, 0});
  ASSERT_TRUE(next.Save(path_).ok());
  // First read attempt fails in flight; the bounded retry must succeed.
  ASSERT_TRUE(
      common::FaultInjector::Global().Configure("ckpt.read:fail@1").ok());
  ReloadOptions options;
  options.max_attempts = 3;
  options.backoff_ms = 0.1;
  ServeStats stats;
  const auto status = store.Reload(path_, options, &stats);
  common::FaultInjector::Global().Clear();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(store.size(), 3);
  EXPECT_EQ(stats.Snapshot().reloads_ok, 1);
}

TEST_F(EmbeddingStoreTest, ReloadRejectsDimensionChangeImmediately) {
  auto store = EmbeddingStore::FromRows(2, 3, {1, 0, 0, 0, 1, 0});
  const auto wrong_dim = EmbeddingStore::FromRows(2, 5, {1, 0, 0, 0, 0,  //
                                                         0, 1, 0, 0, 0});
  ASSERT_TRUE(wrong_dim.Save(path_).ok());
  ServeStats stats;
  const auto status = store.Reload(path_, ReloadOptions{}, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(store.dim(), 3);  // unchanged
  EXPECT_EQ(stats.Snapshot().reloads_failed, 1);
}

}  // namespace
}  // namespace desalign::serve
