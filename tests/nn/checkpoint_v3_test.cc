// v3 (dtype-tagged) checkpoint format: round trips for every dtype, which
// state may ride along, reading and migrating the committed v2 fixture,
// and a table-driven corrupt-fixture suite. Because the whole body sits under
// the footer CRC, naive bit flips are caught by the envelope before the
// v3 parser runs; the corruption helper below re-seals the footer after
// each mutation so the per-record guards (unknown dtype id, scale-count
// mismatch, per-array CRC) are what actually reject the file.

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "nn/checkpoint.h"
#include "nn/quant.h"
#include "tensor/tensor.h"
#include "testing/v2_fixture.h"

namespace desalign::nn {
namespace {

using tensor::Tensor;

// On-disk v3 offsets (see src/nn/checkpoint.cc): 14-byte magic, then the
// body: u32 version | i64 epoch | u32 flags | i64 tensor_count, so the
// first record's dtype byte sits at 14 + 4 + 8 + 4 + 8 = 38. The footer
// is u32 crc(body) | "DCKPTEND" (8 bytes) at the end of the file.
constexpr size_t kMagicLen = 14;
constexpr size_t kFirstDtypeOffset = 38;
constexpr size_t kFirstScaleCountOffset = kFirstDtypeOffset + 1 + 8 + 8;
constexpr size_t kFooterLen = 4 + 8;

class CheckpointV3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    common::FaultInjector::Global().Clear();
    dir_ = std::filesystem::temp_directory_path() /
           ("desalign_ckpt_v3_test_" + std::to_string(::getpid()));
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

QuantTensor MakeQuant(TensorDtype dtype, int64_t rows, int64_t cols,
                      uint64_t seed) {
  common::Rng rng(seed);
  auto t = Tensor::Create(rows, cols, false);
  for (auto& v : t->data()) v = rng.UniformF(-1.0f, 1.0f);
  auto q = QuantizeTensor(*t, dtype);
  EXPECT_TRUE(q.ok());
  return std::move(q.value());
}

TrainingCheckpoint MakeV3Checkpoint(uint64_t seed) {
  TrainingCheckpoint ckpt;
  ckpt.epoch = 4;
  ckpt.tensors.push_back(MakeQuant(TensorDtype::kInt8, 6, 5, seed));
  ckpt.tensors.push_back(MakeQuant(TensorDtype::kBf16, 3, 7, seed + 1));
  ckpt.tensors.push_back(MakeQuant(TensorDtype::kFloat32, 2, 9, seed + 2));
  return ckpt;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

// Applies `mutate` to the raw bytes, then recomputes the footer CRC so
// only the per-record integrity checks can reject the result.
std::string MutateAndReseal(std::string bytes,
                            const std::function<void(std::string&)>& mutate) {
  mutate(bytes);
  const size_t body_len = bytes.size() - kMagicLen - kFooterLen;
  const uint32_t crc = common::Crc32(bytes.data() + kMagicLen, body_len);
  std::memcpy(bytes.data() + bytes.size() - kFooterLen, &crc, sizeof(crc));
  return bytes;
}

TEST_F(CheckpointV3Test, RoundTripPreservesEveryDtypePayloadBitExactly) {
  const auto saved = MakeV3Checkpoint(3);
  ASSERT_TRUE(SaveCheckpoint(saved, path_).ok());
  auto loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  testing::ExpectSameCheckpoint(loaded.value(), saved);
}

TEST_F(CheckpointV3Test, SaveRejectsMixedOrStatefulV3) {
  // Optimizer / rng / train state rides along when every record is fp32.
  TrainingCheckpoint fp32;
  fp32.tensors.push_back(MakeQuant(TensorDtype::kFloat32, 2, 9, 5));
  fp32.tensors.push_back(MakeQuant(TensorDtype::kFloat32, 4, 1, 6));
  fp32.has_optimizer = true;
  fp32.opt_step = 9;
  for (const auto& t : fp32.tensors) {
    fp32.opt_m.push_back(std::vector<float>(t.f32.size(), 0.25f));
    fp32.opt_v.push_back(std::vector<float>(t.f32.size(), 0.5f));
  }
  fp32.has_rng = true;
  fp32.rng_state = common::Rng(6).SerializeState();
  fp32.has_train_state = true;
  fp32.stall = 1;
  ASSERT_TRUE(SaveCheckpoint(fp32, path_).ok());
  auto loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  testing::ExpectSameCheckpoint(loaded.value(), fp32);

  // ...but not next to a quantized record: fp32 moments for int8 params
  // make no sense.
  auto ckpt = MakeV3Checkpoint(7);
  ckpt.has_train_state = true;
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  ckpt = fp32;
  ckpt.tensors[1] = MakeQuant(TensorDtype::kBf16, 4, 1, 8);
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  // Payload sizes are validated before anything hits disk.
  ckpt = MakeV3Checkpoint(8);
  ckpt.tensors[0].scales.pop_back();
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  ckpt = MakeV3Checkpoint(8);
  ckpt.tensors[2].f32.push_back(1.0f);
  EXPECT_EQ(SaveCheckpoint(ckpt, path_).code(),
            common::StatusCode::kInvalidArgument);
  // The last good save is still on disk.
  EXPECT_TRUE(LoadCheckpoint(path_).ok());
}

struct CorruptCase {
  const char* name;
  std::function<void(std::string&)> mutate;
  const char* expect_substring;
};

TEST_F(CheckpointV3Test, TableDrivenCorruptionsRejectedWithNamedErrors) {
  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(9), path_).ok());
  const std::string pristine = ReadFile(path_);
  ASSERT_GT(pristine.size(), kFirstScaleCountOffset + 8);

  const CorruptCase cases[] = {
      {"unknown dtype id",
       [](std::string& b) { b[kFirstDtypeOffset] = 7; },
       "unknown dtype id"},
      {"scale-array length mismatch",
       [](std::string& b) {
         int64_t count = 0;
         std::memcpy(&count, b.data() + kFirstScaleCountOffset,
                     sizeof(count));
         ++count;
         std::memcpy(b.data() + kFirstScaleCountOffset, &count,
                     sizeof(count));
       },
       "does not match rows"},
      {"scale array larger than the file",
       // rows = scale_count = 2^62 with cols = 0 passes the shape check
       // (no codes), and 2^62 four-byte scales wrap a 64-bit byte count
       // to 0: the reader must compare the count, not the product.
       [](std::string& b) {
         const int64_t rows = int64_t{1} << 62;
         const int64_t cols = 0;
         std::memcpy(b.data() + kFirstDtypeOffset + 1, &rows, sizeof(rows));
         std::memcpy(b.data() + kFirstDtypeOffset + 9, &cols, sizeof(cols));
         std::memcpy(b.data() + kFirstScaleCountOffset, &rows, sizeof(rows));
       },
       "truncated scale payload"},
      {"flipped scale payload byte",
       // First scale float sits right after the scale count.
       [](std::string& b) { b[kFirstScaleCountOffset + 8] ^= 0x40; },
       "scale checksum mismatch"},
      {"flipped code payload byte",
       // Codes follow the 6 scales and their u32 CRC.
       [](std::string& b) {
         b[kFirstScaleCountOffset + 8 + 6 * 4 + 4 + 3] ^= 0x01;
       },
       "checksum mismatch"},
      {"nonzero flags beside a quantized record",
       [](std::string& b) { b[kMagicLen + 4 + 8] = 1; },
       "nonzero flags"},
      {"unknown flag bit",
       [](std::string& b) { b[kMagicLen + 4 + 8] = 8; },
       "unknown flags"},
      {"truncated dtype tag",
       // Body cut immediately before the first record: the declared
       // tensor_count can no longer be satisfied.
       [](std::string& b) {
         b.erase(kFirstDtypeOffset, b.size() - kFirstDtypeOffset - kFooterLen);
       },
       "truncated tensor header"},
      {"trailing garbage",
       [](std::string& b) { b.insert(b.size() - kFooterLen, "XYZW"); },
       "trailing bytes"},
  };

  for (const auto& c : cases) {
    WriteFile(path_, MutateAndReseal(pristine, c.mutate));
    auto loaded = LoadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError) << c.name;
    EXPECT_NE(loaded.status().ToString().find(c.expect_substring),
              std::string::npos)
        << c.name << ": got " << loaded.status().ToString();
  }
  // The pristine bytes still load — the harness itself is sound.
  WriteFile(path_, pristine);
  EXPECT_TRUE(LoadCheckpoint(path_).ok());
}

TEST_F(CheckpointV3Test, RawBitFlipsCaughtByTheEnvelope) {
  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(10), path_).ok());
  const std::string pristine = ReadFile(path_);
  for (size_t off = 0; off < pristine.size(); off += 11) {
    std::string corrupt = pristine;
    corrupt[off] ^= 1;
    WriteFile(path_, corrupt);
    auto loaded = LoadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok()) << "bit flip at offset " << off;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
  }
}

TEST_F(CheckpointV3Test, TruncationRejectedAtEveryLength) {
  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(11), path_).ok());
  const auto size = std::filesystem::file_size(path_);
  for (uint64_t keep = 0; keep < size; keep += 7) {
    ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(11), path_).ok());
    std::filesystem::resize_file(path_, keep);
    EXPECT_FALSE(LoadCheckpoint(path_).ok()) << "kept " << keep;
  }
}

TEST_F(CheckpointV3Test, InjectedTornWriteAndReadBitFlipRejected) {
  // The DESALIGN_FAULTS harness exercises the same ckpt.* sites v2 uses.
  ASSERT_TRUE(common::FaultInjector::Global()
                  .Configure("ckpt.write.data:short:100")
                  .ok());
  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(12), path_).ok());
  common::FaultInjector::Global().Clear();
  EXPECT_FALSE(LoadCheckpoint(path_).ok());

  ASSERT_TRUE(SaveCheckpoint(MakeV3Checkpoint(13), path_).ok());
  ASSERT_TRUE(
      common::FaultInjector::Global().Configure("ckpt.read:bitflip:60").ok());
  EXPECT_FALSE(LoadCheckpoint(path_).ok());  // corrupted in flight
  EXPECT_TRUE(LoadCheckpoint(path_).ok());   // disk copy is fine
}

// A training directory written before v3 became the only format holds v2
// files; the manager must resume from them, and the next write migrates
// the directory to v3 without changing a bit of the state.
TEST_F(CheckpointV3Test, V2FixtureResumesAndMigratesToV3) {
  const auto ckpt_dir = dir_ / "run";
  std::filesystem::create_directories(ckpt_dir);
  std::filesystem::copy_file(testing::V2FixturePath(),
                             ckpt_dir / "ckpt_00000006.dckpt");
  CheckpointManager manager(ckpt_dir.string());
  ASSERT_TRUE(manager.Init().ok());
  std::string loaded_path;
  auto resumed = manager.LoadLatestValid(&loaded_path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(loaded_path, (ckpt_dir / "ckpt_00000006.dckpt").string());
  const TrainingCheckpoint expected = testing::V2FixtureExpected();
  testing::ExpectSameCheckpoint(resumed.value(), expected);

  TrainingCheckpoint next = std::move(resumed).value();
  next.epoch = 7;
  ASSERT_TRUE(manager.Write(next).ok());
  const std::string written =
      ReadFile((ckpt_dir / "ckpt_00000007.dckpt").string());
  EXPECT_EQ(written.substr(0, 14), "DESALIGNCKPT3\n");
  auto migrated = manager.LoadLatestValid();
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  TrainingCheckpoint want = expected;
  want.epoch = 7;
  testing::ExpectSameCheckpoint(migrated.value(), want);
}

}  // namespace
}  // namespace desalign::nn
