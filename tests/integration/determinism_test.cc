// Determinism suite: a full small-config DESAlign training run must be
// bit-exact across repeated runs with the same seed and across thread
// counts. Reproducible comparisons are the foundation the benchmarking
// harness (and the paper's tables) stand on — any nondeterminism in the
// tensor kernels, the thread-pool partitioning, or the training loop shows
// up here as a float-for-float mismatch.

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/desalign.h"
#include "kg/synthetic.h"
#include "tensor/kernels/buffer_pool.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/kernels/solver/find_db.h"
#include "tensor/kernels/solver/solver.h"
#include "tensor/tensor.h"

namespace desalign {
namespace {

kg::AlignedKgPair TinyData(uint64_t seed = 91) {
  kg::SyntheticSpec spec;
  spec.num_entities = 70;
  spec.seed = seed;
  spec.seed_ratio = 0.3;
  return kg::GenerateSyntheticPair(spec);
}

core::DesalignConfig TinyConfig(uint64_t seed = 5) {
  auto cfg = core::DesalignConfig::Default(seed);
  cfg.base.dim = 8;
  cfg.base.epochs = 4;
  cfg.propagation_iterations = 2;
  return cfg;
}

struct RunArtifacts {
  std::vector<float> fused;
  std::vector<float> similarity;
};

// One complete train → decode journey; returns every float the run
// produced so callers can compare runs bit-for-bit.
RunArtifacts TrainAndDecode(const kg::AlignedKgPair& data, uint64_t seed) {
  core::DesalignModel model(TinyConfig(seed));
  model.Fit(data);
  auto fused = model.FusedEmbeddings();
  auto sim = model.DecodeSimilarity(data);
  RunArtifacts out;
  out.fused.assign(fused->data().begin(), fused->data().end());
  out.similarity.assign(sim->data().begin(), sim->data().end());
  return out;
}

// memcmp, not EXPECT_FLOAT_EQ: the claim is bit-exactness, and a byte
// compare also distinguishes -0.0f from 0.0f and catches NaN payloads.
void ExpectBitExact(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_FALSE(a.empty()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": runs diverged";
}

TEST(DeterminismTest, SameSeedSameRunBitExact) {
  auto data = TinyData();
  const RunArtifacts first = TrainAndDecode(data, 5);
  const RunArtifacts second = TrainAndDecode(data, 5);
  ExpectBitExact(first.fused, second.fused, "fused embeddings");
  ExpectBitExact(first.similarity, second.similarity, "decoded similarity");
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  auto data = TinyData();
  const RunArtifacts a = TrainAndDecode(data, 5);
  const RunArtifacts b = TrainAndDecode(data, 6);
  ASSERT_EQ(a.fused.size(), b.fused.size());
  EXPECT_NE(std::memcmp(a.fused.data(), b.fused.data(),
                        a.fused.size() * sizeof(float)),
            0)
      << "different init seeds produced identical embeddings";
}

TEST(DeterminismTest, ThreadCountInvariant) {
  auto data = TinyData();
  common::ThreadPool::SetGlobalThreadCount(1);
  const RunArtifacts serial = TrainAndDecode(data, 5);
  common::ThreadPool::SetGlobalThreadCount(4);
  const RunArtifacts parallel = TrainAndDecode(data, 5);
  common::ThreadPool::SetGlobalThreadCount(0);  // restore automatic
  ExpectBitExact(serial.fused, parallel.fused, "fused embeddings");
  ExpectBitExact(serial.similarity, parallel.similarity,
                 "decoded similarity");
}

// The BufferPool hands out recycled (possibly stale) storage; results must
// not depend on it. Train with the pool disabled (fresh zeroed allocations,
// the pre-pool behaviour), then twice with it enabled — the second enabled
// run recycles dirty buffers from the first, which is exactly the state
// where a kernel reading uninitialized output storage would diverge.
TEST(DeterminismTest, BufferPoolInvariant) {
  auto data = TinyData();
  auto& pool = tensor::kernels::BufferPool::Global();
  pool.set_enabled(false);
  const RunArtifacts off = TrainAndDecode(data, 5);
  pool.set_enabled(true);
  pool.Clear();
  const RunArtifacts cold = TrainAndDecode(data, 5);
  const RunArtifacts warm = TrainAndDecode(data, 5);
  ExpectBitExact(off.fused, cold.fused, "fused embeddings (pool off vs on)");
  ExpectBitExact(off.similarity, cold.similarity,
                 "decoded similarity (pool off vs on)");
  ExpectBitExact(off.fused, warm.fused,
                 "fused embeddings (pool off vs warm/dirty pool)");
  ExpectBitExact(off.similarity, warm.similarity,
                 "decoded similarity (pool off vs warm/dirty pool)");
}

// ISA selection is a speed knob, never a numerics knob: forcing the scalar
// bodies must reproduce the auto-dispatched (possibly AVX2) run exactly.
TEST(DeterminismTest, IsaInvariant) {
  auto data = TinyData();
  const RunArtifacts auto_isa = TrainAndDecode(data, 5);
  tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar);
  const RunArtifacts scalar = TrainAndDecode(data, 5);
  tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar,
                                  /*has_override=*/false);
  ExpectBitExact(auto_isa.fused, scalar.fused, "fused embeddings");
  ExpectBitExact(auto_isa.similarity, scalar.similarity,
                 "decoded similarity");
}

// Acceptance check for the pool: once every live shape has been seen, the
// epoch loop should run close to allocation-free. The first run warms the
// buckets; the second must be served almost entirely from them.
TEST(DeterminismTest, BufferPoolSteadyStateHitRate) {
  auto data = TinyData();
  auto& pool = tensor::kernels::BufferPool::Global();
  pool.set_enabled(true);
  TrainAndDecode(data, 5);  // warm the buckets
  pool.ResetStats();
  TrainAndDecode(data, 5);
  const auto stats = pool.GetStats();
  ASSERT_GT(stats.hits + stats.misses, 0);
  // Not exactly 1.0: a bucket that overflows kMaxBuffersPerBucket at the
  // peak of the graph discards, and those allocations miss again next run.
  EXPECT_GE(stats.HitRate(), 0.95)
      << "steady-state training should recycle nearly every buffer, got "
      << stats.hits << " hits / " << stats.misses << " misses";
}

// The GEMM solver registry replays its tuning cache (find-db) and nothing
// else, so which solver serves a shape is a pure function of the cache
// file — identical under every thread count and every DESALIGN_KERNEL_ISA /
// override setting. This is what lets a tuned machine stay bit-exact with
// an untuned one: selection changes speed, the solvers themselves are all
// bit-identical to the reference.
TEST(DeterminismTest, SolverSelectionReplaysCacheAcrossThreadsAndIsa) {
  namespace solver = tensor::kernels::solver;
  auto& registry = solver::SolverRegistry::Global();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "desalign_determinism_find_db.bin")
          .string();

  solver::FindDb db;
  solver::FindDbRecord rec;
  rec.key = solver::ProblemKey::FromProblem(solver::GemmProblem{
      solver::GemmOp::kMatMul, 70, 8, 70, tensor::kernels::IsaLevel::kScalar,
      1});
  rec.solver_id = "gemm.blocked8x8";
  db.Upsert(rec);
  ASSERT_TRUE(db.Save(path).ok());
  ASSERT_TRUE(registry.ReloadCache(path).ok());

  const tensor::kernels::IsaLevel levels[] = {
      tensor::kernels::IsaLevel::kScalar, tensor::kernels::IsaLevel::kAvx2};
  for (const auto isa : levels) {
    for (const int threads : {1, 2, 4, 8}) {
      tensor::kernels::SetIsaOverride(isa);
      common::ThreadPool::SetGlobalThreadCount(threads);
      const auto p =
          solver::GemmProblem::Current(solver::GemmOp::kMatMul, 70, 8, 70);
      EXPECT_STREQ(registry.Select(p)->id(), "gemm.blocked8x8")
          << tensor::kernels::IsaName(isa) << " @" << threads << " threads";
      tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar,
                                      /*has_override=*/false);
      common::ThreadPool::SetGlobalThreadCount(0);
    }
  }

  registry.ClearCache();
  std::filesystem::remove(path);
}

// End-to-end version of the same claim: a full train → decode run with the
// blocked solver tuned in must be bit-identical to the untuned (default
// solver) run.
TEST(DeterminismTest, TunedCacheDoesNotChangeTrainingOutput) {
  namespace solver = tensor::kernels::solver;
  auto& registry = solver::SolverRegistry::Global();
  auto data = TinyData();

  registry.ClearCache();
  const RunArtifacts untuned = TrainAndDecode(data, 5);

  // Tune every bucket a tiny run can hit toward the blocked solver: keys
  // are (op, ceil-log2 bucket), so a handful of cube stand-ins cover all
  // the rectangular shapes training actually produces.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "desalign_determinism_find_db_full.bin")
          .string();
  solver::FindDb db;
  for (const auto op :
       {solver::GemmOp::kMatMul, solver::GemmOp::kMatMulGradA,
        solver::GemmOp::kMatMulGradB}) {
    for (int64_t bm = 0; bm <= 8; ++bm) {
      for (int64_t bk = 0; bk <= 8; ++bk) {
        for (int64_t bn = 0; bn <= 8; ++bn) {
          solver::FindDbRecord rec;
          rec.key.op = static_cast<uint8_t>(op);
          rec.key.bm = static_cast<uint8_t>(bm);
          rec.key.bk = static_cast<uint8_t>(bk);
          rec.key.bn = static_cast<uint8_t>(bn);
          rec.solver_id = "gemm.blocked8x8";
          db.Upsert(rec);
        }
      }
    }
  }
  ASSERT_TRUE(db.Save(path).ok());
  ASSERT_TRUE(registry.ReloadCache(path).ok());
  const RunArtifacts tuned = TrainAndDecode(data, 5);
  registry.ClearCache();
  std::filesystem::remove(path);

  ExpectBitExact(untuned.fused, tuned.fused, "fused embeddings");
  ExpectBitExact(untuned.similarity, tuned.similarity, "decoded similarity");
}

// Without a find-db, selection is the static choice: a function of
// (op, m, k, n) alone. At every GEMM shape the pipeline benchmark
// dispatches (training at 2000 entities plus the decode sweep), it must
// pick the same solver at every thread count and ISA level.
TEST(DeterminismTest, StaticSolverChoiceIgnoresThreadsAndIsa) {
  namespace solver = tensor::kernels::solver;
  auto& registry = solver::SolverRegistry::Global();
  registry.ClearCache();
  struct Shape {
    solver::GemmOp op;
    int64_t m, k, n;
  };
  const auto fwd = solver::GemmOp::kMatMul;
  const auto grad_a = solver::GemmOp::kMatMulGradA;
  const auto grad_b = solver::GemmOp::kMatMulGradB;
  const Shape shapes[] = {
      {fwd, 1600, 128, 1600},  {fwd, 400, 128, 400},   {fwd, 400, 32, 400},
      {fwd, 4000, 32, 32},     {fwd, 4000, 42, 32},    {fwd, 4000, 48, 32},
      {fwd, 4000, 84, 32},     {fwd, 30628, 16, 1},    {grad_a, 400, 128, 400},
      {grad_a, 400, 32, 400},  {grad_a, 4000, 32, 32}, {grad_a, 30628, 16, 1},
      {grad_b, 400, 128, 400}, {grad_b, 400, 32, 400}, {grad_b, 4000, 32, 32},
      {grad_b, 4000, 42, 32},  {grad_b, 4000, 48, 32}, {grad_b, 4000, 84, 32},
      {grad_b, 30628, 16, 1},
  };
  const tensor::kernels::IsaLevel levels[] = {
      tensor::kernels::IsaLevel::kScalar, tensor::kernels::IsaLevel::kAvx2};
  for (const Shape& shape : shapes) {
    const std::string expected =
        registry
            .Select(solver::GemmProblem{shape.op, shape.m, shape.k, shape.n,
                                        tensor::kernels::IsaLevel::kScalar,
                                        1})
            ->id();
    // Single-column GEMMs take row-axpy, every other shape here blocked.
    EXPECT_EQ(expected, shape.n == 1 ? "gemm.rowaxpy" : "gemm.blocked8x8")
        << solver::GemmOpName(shape.op) << " " << shape.m << "x" << shape.k
        << "x" << shape.n;
    for (const auto isa : levels) {
      for (const int threads : {1, 2, 4, 8}) {
        tensor::kernels::SetIsaOverride(isa);
        common::ThreadPool::SetGlobalThreadCount(threads);
        const auto p = solver::GemmProblem::Current(shape.op, shape.m,
                                                    shape.k, shape.n);
        EXPECT_EQ(registry.Select(p)->id(), expected)
            << solver::GemmOpName(shape.op) << " " << shape.m << "x"
            << shape.k << "x" << shape.n << " "
            << tensor::kernels::IsaName(isa) << " @" << threads
            << " threads";
        tensor::kernels::SetIsaOverride(tensor::kernels::IsaLevel::kScalar,
                                        /*has_override=*/false);
        common::ThreadPool::SetGlobalThreadCount(0);
      }
    }
  }
}

TEST(DeterminismTest, DatasetGenerationIsSeedDeterministic) {
  auto a = TinyData(123);
  auto b = TinyData(123);
  ASSERT_EQ(a.train_pairs.size(), b.train_pairs.size());
  for (size_t i = 0; i < a.train_pairs.size(); ++i) {
    EXPECT_EQ(a.train_pairs[i].source, b.train_pairs[i].source);
    EXPECT_EQ(a.train_pairs[i].target, b.train_pairs[i].target);
  }
  ExpectBitExact(
      std::vector<float>(a.source.visual_features.features->data().begin(),
                         a.source.visual_features.features->data().end()),
      std::vector<float>(b.source.visual_features.features->data().begin(),
                         b.source.visual_features.features->data().end()),
      "visual features");
}

}  // namespace
}  // namespace desalign
