// Deterministic mutational fuzzer for the checkpoint parser
// (nn::LoadCheckpoint) and the row-source locator (nn::LocateFirstRecord,
// behind serve::CheckpointRowSource::Open). Fixed seed and a fixed mutant
// count, no external engine: the run is the same on every machine, and
// tools/ci.sh runs it under ASan (--faults) and UBSan, where any
// out-of-bounds read, overflow or over-allocation aborts the test.
//
// Seeds: a v3 training checkpoint (fp32 records + optimizer, RNG and train
// state), v3 int8 and bf16 snapshots, the committed v2 fixture, and a
// pre-checksum v1 file. Mutations: bit flips, truncations, insertions,
// and overwrites of header and record fields with boundary values. Most
// mutants are re-sealed (footer CRC recomputed, magic kept or swapped
// between v2 and v3) so they get past the envelope and reach the record
// parser; the rest are left as they are to exercise the envelope itself.
//
// Every mutant must yield ok or an error Status, never a crash. A mutant
// that loads must hold consistent records and survive a save/load round
// trip; a mutant the locator accepts must have its payload inside the
// file.

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "nn/checkpoint.h"
#include "nn/quant.h"
#include "serve/row_source.h"
#include "testing/v2_fixture.h"

namespace desalign::nn {
namespace {

constexpr size_t kMagicLen = 14;
constexpr size_t kFooterLen = 4 + 8;  // u32 crc | "DCKPTEND"
constexpr int kMutantsPerSeed = 1500;
constexpr uint64_t kFuzzSeed = 0x5EEDC0DE;

struct Seed {
  std::string name;
  std::string bytes;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

QuantTensor Record(TensorDtype dtype, int64_t rows, int64_t cols,
                   uint64_t seed) {
  common::Rng rng(seed);
  auto t = tensor::Tensor::Create(rows, cols, false);
  for (auto& v : t->data()) v = rng.UniformF(-1.0f, 1.0f);
  auto q = QuantizeTensor(*t, dtype);
  EXPECT_TRUE(q.ok());
  return std::move(q).value();
}

std::string Saved(const TrainingCheckpoint& ckpt, const std::string& path) {
  EXPECT_TRUE(SaveCheckpoint(ckpt, path).ok());
  return ReadFile(path);
}

std::vector<Seed> MakeSeeds(const std::string& path) {
  std::vector<Seed> seeds;
  TrainingCheckpoint training;
  training.epoch = 11;
  training.tensors = {Record(TensorDtype::kFloat32, 3, 4, 1),
                      Record(TensorDtype::kFloat32, 1, 5, 2)};
  training.has_optimizer = true;
  training.opt_step = 77;
  for (const auto& t : training.tensors) {
    training.opt_m.emplace_back(t.f32.size(), 0.125f);
    training.opt_v.emplace_back(t.f32.size(), 0.25f);
  }
  training.has_rng = true;
  training.rng_state = "12345 67890";  // short: keeps mutants in the records
  training.has_train_state = true;
  training.best_loss = 0.5f;
  training.stall = 2;
  seeds.push_back({"v3 training", Saved(training, path)});

  TrainingCheckpoint int8;
  int8.tensors = {Record(TensorDtype::kInt8, 6, 5, 3),
                  Record(TensorDtype::kFloat32, 2, 3, 4)};
  seeds.push_back({"v3 int8", Saved(int8, path)});

  TrainingCheckpoint bf16;
  bf16.epoch = 2;
  bf16.tensors = {Record(TensorDtype::kBf16, 4, 6, 5)};
  seeds.push_back({"v3 bf16", Saved(bf16, path)});

  seeds.push_back({"v2 fixture", ReadFile(testing::V2FixturePath())});

  std::string v1 = "DESALIGNPARAMS1";
  const int64_t header[] = {1, 2, 2};
  v1.append(reinterpret_cast<const char*>(header), sizeof(header));
  v1.append(16, '\x3f');
  seeds.push_back({"v1", v1});
  return seeds;
}

/// Boundary values for overwritten header / record fields.
int64_t Interesting(common::Rng& rng) {
  static const int64_t kValues[] = {
      0,
      1,
      -1,
      2,
      3,
      7,
      255,
      int64_t{1} << 31,
      (int64_t{1} << 32) - 1,
      int64_t{1} << 40,
      int64_t{1} << 62,
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min(),
  };
  constexpr int64_t kCount = sizeof(kValues) / sizeof(kValues[0]);
  if (rng.UniformInt(4) == 0) return rng.UniformInt(-64, 64);
  return kValues[rng.UniformInt(kCount)];
}

void Overwrite(std::string& b, size_t offset, int64_t value, size_t width) {
  if (offset + width > b.size()) return;
  std::memcpy(b.data() + offset, &value, width);  // little-endian low bytes
}

void Mutate(std::string& b, common::Rng& rng) {
  const int ops = 1 + static_cast<int>(rng.UniformInt(3));
  for (int op = 0; op < ops; ++op) {
    const size_t size = b.size();
    const auto at = [&](size_t n) {
      return static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(n)));
    };
    switch (rng.UniformInt(5)) {
      case 0:  // bit flip
        if (size > 0) b[at(size)] ^= static_cast<char>(1 << at(8));
        break;
      case 1:  // truncation
        b.resize(at(size + 1));
        break;
      case 2: {  // insertion
        std::string chunk(1 + at(16), '\0');
        for (char& c : chunk) c = static_cast<char>(at(256));
        b.insert(at(size + 1), chunk);
        break;
      }
      case 3: {  // header field overwrite: version, epoch, flags, count,
                 // then the first record's dtype / rows / cols (v3
                 // offsets; v2 records start one byte earlier)
        static const size_t kFields[][2] = {{0, 4},  {4, 8},  {12, 4},
                                            {16, 8}, {24, 1}, {25, 8},
                                            {33, 8}, {24, 8}, {32, 8}};
        const auto& field =
            kFields[at(sizeof(kFields) / sizeof(kFields[0]))];
        Overwrite(b, field[0], Interesting(rng), field[1]);
        break;
      }
      default:  // field-sized overwrite anywhere (record shapes, lengths)
        if (size >= 8) Overwrite(b, at(size - 7), Interesting(rng), 8);
        break;
    }
  }
}

/// Applies a random mutation to `seed`. Three in four mutants mutate the
/// body and are re-sealed with a matching footer CRC and end marker (and
/// one in eight of those swaps the v2/v3 magic); the rest mutate the raw
/// file, envelope included.
std::string MakeMutant(const std::string& seed, common::Rng& rng) {
  if (rng.UniformInt(4) == 0 || seed.size() < kMagicLen + kFooterLen) {
    std::string raw = seed;
    Mutate(raw, rng);
    return raw;
  }
  std::string magic = seed.substr(0, kMagicLen);
  std::string body =
      seed.substr(kMagicLen, seed.size() - kMagicLen - kFooterLen);
  Mutate(body, rng);
  if (rng.UniformInt(8) == 0 && magic.rfind("DESALIGNCKPT", 0) == 0) {
    magic[12] = magic[12] == '3' ? '2' : '3';
  }
  const uint32_t crc = common::Crc32(body.data(), body.size());
  std::string out = magic + body;
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.append("DCKPTEND");
  return out;
}

/// The payload sizes a loaded record must have for its dtype and shape.
bool Consistent(const TrainingCheckpoint& ckpt) {
  for (size_t i = 0; i < ckpt.tensors.size(); ++i) {
    const QuantTensor& q = ckpt.tensors[i];
    if (q.rows < 0 || q.cols < 0) return false;
    const size_t elems = static_cast<size_t>(q.rows * q.cols);
    const size_t stored = q.f32.size() + q.codes.size() + q.bf16.size();
    if (stored != elems) return false;
    if (q.dtype == TensorDtype::kInt8 &&
        q.scales.size() != static_cast<size_t>(q.rows)) {
      return false;
    }
    if (ckpt.has_optimizer && (ckpt.opt_m[i].size() != q.f32.size() ||
                               ckpt.opt_v[i].size() != q.f32.size())) {
      return false;
    }
  }
  return !ckpt.has_optimizer || (ckpt.opt_m.size() == ckpt.tensors.size() &&
                                 ckpt.opt_v.size() == ckpt.tensors.size());
}

/// Status text without the file path and digits, to count distinct
/// rejection reasons.
std::string Reason(const common::Status& status, const std::string& path) {
  std::string text = status.message();
  for (size_t at; (at = text.find(path)) != std::string::npos;) {
    text.erase(at, path.size());
  }
  std::string reason;
  for (char c : text) {
    if (c < '0' || c > '9') reason.push_back(c);
  }
  return reason;
}

TEST(CheckpointFuzzTest, MutantsLoadOrFailCleanly) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("desalign_ckpt_fuzz_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "mutant.dckpt").string();
  const std::string resave = (dir / "resave.dckpt").string();

  const std::vector<Seed> seeds = MakeSeeds(path);
  common::Rng rng(kFuzzSeed);
  std::set<std::string> reasons;
  int loaded_ok = 0;
  int located_ok = 0;
  for (const Seed& seed : seeds) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = MakeMutant(seed.bytes, rng);
      WriteFile(path, mutant);
      SCOPED_TRACE(seed.name + " mutant " + std::to_string(i));

      auto loaded = LoadCheckpoint(path);
      if (loaded.ok()) {
        ++loaded_ok;
        ASSERT_TRUE(Consistent(loaded.value()));
        // Whatever the parser accepts, the writer can write back.
        ASSERT_TRUE(SaveCheckpoint(loaded.value(), resave).ok());
        auto again = LoadCheckpoint(resave);
        ASSERT_TRUE(again.ok()) << again.status().ToString();
        testing::ExpectSameCheckpoint(again.value(), loaded.value());
      } else {
        reasons.insert(Reason(loaded.status(), path));
      }

      auto located = LocateFirstRecord(path);
      if (located.ok()) {
        ++located_ok;
        const FirstRecord& first = located.value();
        ASSERT_GE(first.rows, 0);
        ASSERT_GE(first.cols, 0);
        ASSERT_LE(static_cast<double>(first.payload_offset) +
                      static_cast<double>(first.rows) *
                          static_cast<double>(first.cols) *
                          static_cast<double>(DtypeBytes(first.dtype)),
                  static_cast<double>(mutant.size()));
        auto source = serve::CheckpointRowSource::Open(path);
        if (source.ok()) {
          std::vector<float> row(static_cast<size_t>(source.value().dim()));
          EXPECT_TRUE(source.value().Row(source.value().rows() - 1,
                                         row.data()));
        }
      }
    }
  }
  // The fuzzer reached past the envelope: mutants were both accepted and
  // rejected for many distinct reasons, not just by the footer CRC.
  EXPECT_GT(loaded_ok, 0);
  EXPECT_GT(located_ok, 0);
  EXPECT_GE(reasons.size(), 20u) << [&] {
    std::string all;
    for (const auto& r : reasons) all += "\n  " + r;
    return all;
  }();

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace desalign::nn
