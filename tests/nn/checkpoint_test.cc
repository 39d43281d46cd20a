#include "nn/checkpoint.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "tensor/init.h"
#include "testing/v2_fixture.h"

namespace desalign::nn {
namespace {

using tensor::Tensor;
using tensor::TensorPtr;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::Global().Clear();
    dir_ = std::filesystem::temp_directory_path() /
           ("desalign_ckpt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "ckpt.dckpt").string();
  }
  void TearDown() override {
    common::FaultInjector::Global().Clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
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

TrainingCheckpoint MakeFullCheckpoint(uint64_t seed) {
  TrainingCheckpoint ckpt;
  ckpt.epoch = 17;
  ckpt.tensors = ParameterRecords(MakeParams(seed));
  ckpt.has_optimizer = true;
  ckpt.opt_step = 123;
  common::Rng rng(seed + 1);
  for (const auto& t : ckpt.tensors) {
    std::vector<float> m(t.f32.size());
    std::vector<float> v(t.f32.size());
    for (auto& x : m) x = rng.UniformF(-1.0f, 1.0f);
    for (auto& x : v) x = rng.UniformF(0.0f, 1.0f);
    ckpt.opt_m.push_back(std::move(m));
    ckpt.opt_v.push_back(std::move(v));
  }
  ckpt.has_rng = true;
  common::Rng engine(seed + 2);
  engine.Uniform();  // advance so the state is not the seed default
  ckpt.rng_state = engine.SerializeState();
  ckpt.has_train_state = true;
  ckpt.best_loss = 0.625f;
  ckpt.stall = 2;
  ckpt.lr_scale = 0.25f;
  return ckpt;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(CheckpointTest, FullRoundTripIsExact) {
  const auto saved = MakeFullCheckpoint(5);
  ASSERT_TRUE(SaveCheckpoint(saved, path_).ok());
  // Training state rides in the one written format, v3.
  EXPECT_EQ(ReadFile(path_).substr(0, 14), "DESALIGNCKPT3\n");
  auto loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  testing::ExpectSameCheckpoint(loaded.value(), saved);
}

TEST_F(CheckpointTest, ParamsOnlyRoundTrip) {
  TrainingCheckpoint saved;
  saved.tensors = ParameterRecords(MakeParams(6));
  ASSERT_TRUE(SaveCheckpoint(saved, path_).ok());
  auto loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_optimizer);
  EXPECT_FALSE(loaded.value().has_rng);
  EXPECT_FALSE(loaded.value().has_train_state);
  EXPECT_EQ(loaded.value().tensors[2].f32, saved.tensors[2].f32);
}

TEST_F(CheckpointTest, RngStateRoundTripReproducesDraws) {
  common::Rng original(99);
  for (int i = 0; i < 10; ++i) original.UniformInt(1000);
  TrainingCheckpoint ckpt;
  ckpt.tensors = ParameterRecords(MakeParams(7));
  ckpt.has_rng = true;
  ckpt.rng_state = original.SerializeState();
  ASSERT_TRUE(SaveCheckpoint(ckpt, path_).ok());
  auto loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok());
  common::Rng restored(1);  // different seed, will be overwritten
  ASSERT_TRUE(restored.DeserializeState(loaded.value().rng_state));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored.UniformInt(1 << 30), original.UniformInt(1 << 30));
  }
}

TEST_F(CheckpointTest, EveryByteIsCoveredByChecksums) {
  ASSERT_TRUE(SaveCheckpoint(MakeFullCheckpoint(8), path_).ok());
  const auto size = std::filesystem::file_size(path_);
  const std::string pristine = ReadFile(path_);
  // Flip one bit at a spread of offsets (header, payloads, CRCs, footer,
  // end marker); every single one must be rejected with a clean Status.
  for (uint64_t off = 0; off < size; off += 13) {
    std::string corrupt = pristine;
    corrupt[off] ^= 1;
    std::ofstream(path_, std::ios::binary) << corrupt;
    auto loaded = LoadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok()) << "bit flip at offset " << off;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
  }
}

TEST_F(CheckpointTest, TruncationRejectedAtEveryLength) {
  ASSERT_TRUE(SaveCheckpoint(MakeFullCheckpoint(9), path_).ok());
  const auto size = std::filesystem::file_size(path_);
  for (uint64_t keep = 0; keep < size; keep += 97) {
    ASSERT_TRUE(SaveCheckpoint(MakeFullCheckpoint(9), path_).ok());
    std::filesystem::resize_file(path_, keep);
    auto loaded = LoadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " of " << size;
  }
}

// The pre-checksum v1 parameter format ("DESALIGNPARAMS1", a tensor
// count, then rows/cols/floats per tensor) is no longer read: no writer
// has produced it since checkpoints gained checksums, and it carries none.
TEST_F(CheckpointTest, V1FilesAreRejectedCleanly) {
  std::string v1 = "DESALIGNPARAMS1";
  const int64_t header[] = {1, 2, 2};  // one 2x2 tensor
  v1.append(reinterpret_cast<const char*>(header), sizeof(header));
  const float values[] = {1.0f, 2.0f, 3.0f, 4.0f};
  v1.append(reinterpret_cast<const char*>(values), sizeof(values));
  std::ofstream(path_, std::ios::binary) << v1;
  auto loaded = LoadCheckpoint(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("not a DESAlign checkpoint"),
            std::string::npos)
      << loaded.status().ToString();
  auto located = LocateFirstRecord(path_);
  ASSERT_FALSE(located.ok());
  EXPECT_EQ(located.status().code(), common::StatusCode::kIoError);
}

// v2 stays readable: every checkpoint directory and fp32 store saved
// before v3 became the only written format is v2.
TEST_F(CheckpointTest, V2FixtureLoadsBitExactly) {
  auto loaded = LoadCheckpoint(testing::V2FixturePath());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  testing::ExpectSameCheckpoint(loaded.value(),
                                testing::V2FixtureExpected());
  // The stored RNG continues the exact stream it was saved from.
  common::Rng restored(1);
  ASSERT_TRUE(restored.DeserializeState(loaded.value().rng_state));
  common::Rng expected = testing::V2FixtureRng();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.UniformInt(1 << 30), expected.UniformInt(1 << 30));
  }
  // Its parameters restore into a model of the same shapes.
  std::vector<TensorPtr> params = {Tensor::Create(2, 3, true),
                                   Tensor::Create(1, 4, true)};
  ASSERT_TRUE(RestoreParameters(loaded.value().tensors, params).ok());
  EXPECT_EQ(params[1]->data(), testing::V2FixtureExpected().tensors[1].f32);
  // The row-source locator reads the v2 record layout too.
  auto located = LocateFirstRecord(testing::V2FixturePath());
  ASSERT_TRUE(located.ok()) << located.status().ToString();
  EXPECT_EQ(located.value().dtype, TensorDtype::kFloat32);
  EXPECT_EQ(located.value().rows, 2);
  EXPECT_EQ(located.value().cols, 3);
  const std::string bytes = ReadFile(testing::V2FixturePath());
  std::vector<float> first(6);
  std::memcpy(first.data(), bytes.data() + located.value().payload_offset,
              first.size() * sizeof(float));
  EXPECT_EQ(first, testing::V2FixtureExpected().tensors[0].f32);
}

TEST_F(CheckpointTest, MissingFileAndGarbageRejected) {
  EXPECT_FALSE(LoadCheckpoint((dir_ / "nope.dckpt").string()).ok());
  std::ofstream(path_) << "not a checkpoint at all";
  EXPECT_FALSE(LoadCheckpoint(path_).ok());
}

TEST_F(CheckpointTest, InjectedTornWriteIsRejectedOnLoad) {
  ASSERT_TRUE(common::FaultInjector::Global()
                  .Configure("ckpt.write.data:short:100")
                  .ok());
  // The torn write "succeeds" (models rename-before-data crash ordering)…
  ASSERT_TRUE(SaveCheckpoint(MakeFullCheckpoint(13), path_).ok());
  common::FaultInjector::Global().Clear();
  // …but the checksummed loader refuses the torn file.
  auto loaded = LoadCheckpoint(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
}

TEST_F(CheckpointTest, InjectedReadBitFlipRejectedWithoutTouchingDisk) {
  ASSERT_TRUE(SaveCheckpoint(MakeFullCheckpoint(14), path_).ok());
  ASSERT_TRUE(
      common::FaultInjector::Global().Configure("ckpt.read:bitflip:60").ok());
  EXPECT_FALSE(LoadCheckpoint(path_).ok());  // corrupted in flight
  EXPECT_TRUE(LoadCheckpoint(path_).ok());   // disk copy is fine
}

TEST_F(CheckpointTest, ManagerRotatesAndPrunes) {
  CheckpointManager::Options options;
  options.keep_last = 3;
  CheckpointManager manager(dir_.string(), options);
  ASSERT_TRUE(manager.Init().ok());
  for (int epoch = 0; epoch < 5; ++epoch) {
    auto ckpt = MakeFullCheckpoint(20 + static_cast<uint64_t>(epoch));
    ckpt.epoch = epoch;
    ASSERT_TRUE(manager.Write(ckpt).ok());
  }
  ASSERT_EQ(manager.files().size(), 3u);
  EXPECT_EQ(manager.files().front(), "ckpt_00000002.dckpt");
  EXPECT_EQ(manager.files().back(), "ckpt_00000004.dckpt");
  EXPECT_FALSE(std::filesystem::exists(dir_ / "ckpt_00000000.dckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "MANIFEST"));

  std::string loaded_path;
  auto latest = manager.LoadLatestValid(&loaded_path);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().epoch, 4);
  EXPECT_EQ(loaded_path, (dir_ / "ckpt_00000004.dckpt").string());
}

TEST_F(CheckpointTest, ManagerSkipsCorruptNewestCheckpoint) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Init().ok());
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto ckpt = MakeFullCheckpoint(30);
    ckpt.epoch = epoch;
    ASSERT_TRUE(manager.Write(ckpt).ok());
  }
  // Corrupt the newest file; the previous one must win.
  std::filesystem::resize_file(dir_ / "ckpt_00000002.dckpt", 64);
  auto latest = manager.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().epoch, 1);
}

TEST_F(CheckpointTest, ManagerRebuildsManifestFromDirectoryScan) {
  {
    CheckpointManager manager(dir_.string());
    ASSERT_TRUE(manager.Init().ok());
    for (int epoch = 0; epoch < 3; ++epoch) {
      auto ckpt = MakeFullCheckpoint(40);
      ckpt.epoch = epoch;
      ASSERT_TRUE(manager.Write(ckpt).ok());
    }
  }
  // A crashed run can leave the manifest missing or corrupt; Init must
  // recover the same file set by scanning the directory.
  for (const char* damage : {"missing", "garbage"}) {
    if (std::string(damage) == "missing") {
      std::filesystem::remove(dir_ / "MANIFEST");
    } else {
      std::ofstream(dir_ / "MANIFEST") << "definitely not a manifest\n";
    }
    CheckpointManager reopened(dir_.string());
    ASSERT_TRUE(reopened.Init().ok()) << damage;
    EXPECT_EQ(reopened.files().size(), 3u) << damage;
    auto latest = reopened.LoadLatestValid();
    ASSERT_TRUE(latest.ok()) << damage;
    EXPECT_EQ(latest.value().epoch, 2) << damage;
  }
}

TEST_F(CheckpointTest, ManagerEmptyDirReportsNotFound) {
  CheckpointManager manager((dir_ / "fresh").string());
  ASSERT_TRUE(manager.Init().ok());
  auto latest = manager.LoadLatestValid();
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), common::StatusCode::kNotFound);
}

TEST_F(CheckpointTest, ManagerKeepsPreviousCheckpointThroughTornWrite) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Init().ok());
  auto good = MakeFullCheckpoint(50);
  good.epoch = 0;
  ASSERT_TRUE(manager.Write(good).ok());
  // The next write is torn mid-payload; the rotation must still be able to
  // serve epoch 0.
  ASSERT_TRUE(common::FaultInjector::Global()
                  .Configure("ckpt.write.data:short:40")
                  .ok());
  auto torn = MakeFullCheckpoint(51);
  torn.epoch = 1;
  ASSERT_TRUE(manager.Write(torn).ok());
  common::FaultInjector::Global().Clear();
  auto latest = manager.LoadLatestValid();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().epoch, 0);
}

TEST_F(CheckpointTest, SaveRejectsMismatchedOptimizerState) {
  auto ckpt = MakeFullCheckpoint(60);
  ckpt.opt_m.pop_back();
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  ckpt = MakeFullCheckpoint(61);
  ckpt.opt_v[0].resize(3);
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace desalign::nn
