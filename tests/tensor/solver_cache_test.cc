// Find-db (tuning cache) robustness: the cache file is advisory — any
// structural defect (truncation, garbage, bit flips, version skew) must be
// rejected with a named error, counted on tensor.solver.cache_errors, and
// leave dispatch running on the default solver. A bad tuning file may make
// the process slower; it must never make it abort or select garbage.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "tensor/kernels/solver/find_db.h"
#include "tensor/kernels/solver/solver.h"

namespace desalign::tensor::kernels::solver {
namespace {

class SolverCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("desalign_solver_cache_test_" + std::to_string(::getpid()) +
              ".bin"))
                .string();
    std::filesystem::remove(path_);
  }

  void TearDown() override {
    SolverRegistry::Global().ClearCache();
    std::filesystem::remove(path_);
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static FindDb MakeDb() {
    FindDb db;
    db.tuned_at_unix = 1754600000;
    const GemmOp ops[] = {GemmOp::kMatMul, GemmOp::kMatMulGradA,
                          GemmOp::kMatMulGradB};
    const int64_t sizes[] = {64, 512};
    for (const GemmOp op : ops) {
      for (const int64_t s : sizes) {
        FindDbRecord rec;
        rec.key = ProblemKey::FromProblem(
            GemmProblem{op, s, s, s, IsaLevel::kScalar, 1});
        rec.solver_id = "gemm.blocked8x8";
        rec.best_ns_per_elem = 0.05;
        rec.default_ns_per_elem = 0.12;
        db.Upsert(rec);
      }
    }
    return db;
  }

  static int64_t CacheErrors() {
    return obs::MetricsRegistry::Global()
        .GetCounter("tensor.solver.cache_errors")
        .value();
  }

  std::string path_;
};

TEST_F(SolverCacheTest, SerializeRoundTripsExactly) {
  const FindDb db = MakeDb();
  auto loaded = FindDb::Deserialize(db.Serialize());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().tuned_at_unix, db.tuned_at_unix);
  ASSERT_EQ(loaded.value().records.size(), db.records.size());
  for (size_t i = 0; i < db.records.size(); ++i) {
    EXPECT_TRUE(loaded.value().records[i].key == db.records[i].key);
    EXPECT_EQ(loaded.value().records[i].solver_id, db.records[i].solver_id);
    EXPECT_EQ(loaded.value().records[i].best_ns_per_elem,
              db.records[i].best_ns_per_elem);
    EXPECT_EQ(loaded.value().records[i].default_ns_per_elem,
              db.records[i].default_ns_per_elem);
  }
  // And through the filesystem.
  ASSERT_TRUE(db.Save(path_).ok());
  auto from_disk = FindDb::Load(path_);
  ASSERT_TRUE(from_disk.ok());
  EXPECT_EQ(from_disk.value().Serialize(), db.Serialize());
}

TEST_F(SolverCacheTest, UpsertReplacesAndFindMissesCleanly) {
  FindDb db = MakeDb();
  const size_t count = db.records.size();
  FindDbRecord rec = db.records.front();
  rec.solver_id = "gemm.rowaxpy";
  db.Upsert(rec);
  EXPECT_EQ(db.records.size(), count);  // replaced, not duplicated
  const FindDbRecord* found = db.Find(rec.key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->solver_id, "gemm.rowaxpy");
  ProblemKey missing;
  missing.op = 2;
  missing.bm = 61;
  missing.bk = 62;
  missing.bn = 63;
  EXPECT_EQ(db.Find(missing), nullptr);
}

struct CorruptCase {
  const char* name;
  std::function<void(std::string&)> mutate;
  const char* expect_substring;
};

TEST_F(SolverCacheTest, TableDrivenCorruptionsRejectedWithNamedErrors) {
  ASSERT_TRUE(MakeDb().Save(path_).ok());
  const std::string pristine = ReadFile(path_);
  ASSERT_GT(pristine.size(), 24u);

  const CorruptCase cases[] = {
      {"empty file", [](std::string& b) { b.clear(); },
       "too short to be valid"},
      {"below minimum size", [](std::string& b) { b.resize(10); },
       "too short to be valid"},
      {"bad magic", [](std::string& b) { b[0] = 'X'; }, "bad magic"},
      {"all garbage",
       [](std::string& b) {
         for (auto& c : b) c = '\x5a';
       },
       "bad magic"},
      // The version field is checked before the checksum so skew reports as
      // skew, not as a CRC failure over bytes we cannot interpret.
      {"version skew", [](std::string& b) { b[4] = 9; },
       "version skew: file v9"},
      {"flipped record byte", [](std::string& b) { b[25] ^= 0x10; },
       "checksum mismatch"},
      {"flipped crc byte",
       [](std::string& b) { b[b.size() - 2] ^= 0x01; },
       "checksum mismatch"},
      {"truncated final record",
       [](std::string& b) { b.resize(b.size() - 9); },
       "checksum mismatch"},
      {"trailing garbage", [](std::string& b) { b += "XYZW"; },
       "checksum mismatch"},
  };

  for (const auto& c : cases) {
    std::string corrupt = pristine;
    c.mutate(corrupt);
    auto loaded = FindDb::Deserialize(corrupt);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError) << c.name;
    EXPECT_NE(loaded.status().ToString().find(c.expect_substring),
              std::string::npos)
        << c.name << ": got " << loaded.status().ToString();

    // Each defect also flows through the registry: ReloadCache fails,
    // counts a cache error, and Select takes the static choice.
    WriteFile(path_, corrupt);
    auto& registry = SolverRegistry::Global();
    const int64_t errors0 = CacheErrors();
    EXPECT_FALSE(registry.ReloadCache(path_).ok()) << c.name;
    EXPECT_EQ(CacheErrors(), errors0 + 1) << c.name;
    EXPECT_EQ(registry.CacheSize(), 0) << c.name;
    const GemmProblem p{GemmOp::kMatMul, 64, 64, 64, IsaLevel::kScalar, 1};
    EXPECT_EQ(registry.Select(p), registry.StaticChoice(p)) << c.name;
  }

  // The pristine bytes still load — the harness itself is sound.
  WriteFile(path_, pristine);
  EXPECT_TRUE(SolverRegistry::Global().ReloadCache(path_).ok());
  EXPECT_GT(SolverRegistry::Global().CacheSize(), 0);
}

TEST_F(SolverCacheTest, TruncationRejectedAtEveryLength) {
  ASSERT_TRUE(MakeDb().Save(path_).ok());
  const std::string pristine = ReadFile(path_);
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    EXPECT_FALSE(FindDb::Deserialize(pristine.substr(0, keep)).ok())
        << "kept " << keep;
  }
}

TEST_F(SolverCacheTest, SingleBitFlipsCaughtEverywhere) {
  ASSERT_TRUE(MakeDb().Save(path_).ok());
  const std::string pristine = ReadFile(path_);
  for (size_t off = 0; off < pristine.size(); ++off) {
    std::string corrupt = pristine;
    corrupt[off] ^= 1;
    EXPECT_FALSE(FindDb::Deserialize(corrupt).ok())
        << "bit flip at offset " << off;
  }
}

TEST_F(SolverCacheTest, VersionSkewIsNotReportedAsChecksumFailure) {
  // A v2 file from a future build: bump the version and reseal the CRC so
  // only the version check can object. This is the forward-compat path —
  // the message names both versions so the fix (re-run tune) is obvious.
  std::string bytes = MakeDb().Serialize();
  bytes[4] = 2;
  const uint32_t crc = common::Crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  auto loaded = FindDb::Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("version skew: file v2"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("reads v1"), std::string::npos);
}

TEST_F(SolverCacheTest, FindDbPathHonorsEnvOverride) {
  ::setenv("DESALIGN_TUNE_CACHE", "/tmp/desalign_override.bin", 1);
  EXPECT_EQ(FindDbPath(), "/tmp/desalign_override.bin");
  ::unsetenv("DESALIGN_TUNE_CACHE");
  // Without the override the path lands under a cache directory.
  EXPECT_NE(FindDbPath().find("gemm_find_db.bin"), std::string::npos);
}

TEST_F(SolverCacheTest, ReloadAfterGoodThenBadKeepsServingDefaults) {
  auto& registry = SolverRegistry::Global();
  ASSERT_TRUE(MakeDb().Save(path_).ok());
  ASSERT_TRUE(registry.ReloadCache(path_).ok());
  EXPECT_STREQ(registry.Select(GemmProblem{GemmOp::kMatMul, 64, 64, 64,
                                           IsaLevel::kScalar, 1})
                   ->id(),
               "gemm.blocked8x8");

  // The file rots in place; a reload drops the stale cache rather than
  // keeping half-trusted records around.
  WriteFile(path_, "DSFDgarbage");
  EXPECT_FALSE(registry.ReloadCache(path_).ok());
  EXPECT_EQ(registry.CacheSize(), 0);
  const GemmProblem p{GemmOp::kMatMul, 64, 64, 64, IsaLevel::kScalar, 1};
  EXPECT_EQ(registry.Select(p), registry.StaticChoice(p));
}

}  // namespace
}  // namespace desalign::tensor::kernels::solver
