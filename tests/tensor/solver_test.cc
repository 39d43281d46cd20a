// GEMM solver suite (ctest -L solver): every GEMM solver must be
// bit-identical to the serial scalar reference (kernels/reference.cc)
// across edge shapes x ISA x thread counts, and runtime selection must be
// the static, shape-only choice, counted per solver that ran.

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/kernels/gemm.h"
#include "tensor/kernels/reference.h"
#include "tensor/kernels/solver/solver.h"

namespace desalign::tensor::kernels::solver {
namespace {

std::vector<float> RandomVec(common::Rng& rng, int64_t n, float lo = -2.0f,
                             float hi = 2.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.UniformF(lo, hi);
  return v;
}

struct Config {
  IsaLevel isa;
  int threads;
};

std::vector<Config> AllConfigs() {
  std::vector<Config> configs = {{IsaLevel::kScalar, 1},
                                 {IsaLevel::kScalar, 4}};
  if (CpuSupportsAvx2()) {
    configs.push_back({IsaLevel::kAvx2, 1});
    configs.push_back({IsaLevel::kAvx2, 4});
  }
  return configs;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// Where the "a" operand (the one whose zero elements the reference skips)
// holds zeros.
enum class Zeros {
  kMixed,       // +0.0 every 5th element, -0.0 every 11th
  kReluLike,    // about half the elements +0.0, at random
  kSingle,      // exactly one +0.0
  kNegative,    // -0.0 every 3rd element, no +0.0
};

// x86's default NaN, the bit pattern 0 * Inf and Inf - Inf produce. Every
// NaN in these cases has this payload, so which NaN operand an add
// propagates cannot differ between two correct kernels.
float DefaultNaN() { return std::bit_cast<float>(0xFFC00000u); }

// Runs every solver on (op, m, k, n) under every ISA x
// partitioning configuration and memcmps the output bytes against the
// reference loops. Output buffers are seeded nonzero (including -0.0f) so
// the grads' accumulate-into-out semantics and the zero-skip subtleties
// are actually exercised. With `nonfinite_b`, the other operand also
// carries +Inf, -Inf and NaN, so a zero a-element that is not skipped
// turns its output into NaN.
void ExpectAllSolversBitExact(GemmOp op, int64_t m, int64_t k, int64_t n,
                              common::Rng& rng, Zeros zeros = Zeros::kMixed,
                              bool nonfinite_b = false) {
  const int64_t in1_len = op == GemmOp::kMatMul ? m * k : m * n;
  const int64_t in2_len = op == GemmOp::kMatMulGradB ? m * k : k * n;
  const int64_t out_len = op == GemmOp::kMatMul
                              ? m * n
                              : (op == GemmOp::kMatMulGradA ? m * k : k * n);
  auto in1 = RandomVec(rng, in1_len);
  auto in2 = RandomVec(rng, in2_len);
  // Plant exact zeros and negative zeros in the "a" operand so the
  // reference's zero-skip must be reproduced term-for-term, and -0.0f in
  // the output so a spurious +0.0 add would flip bytes.
  std::vector<float>& a_operand = op == GemmOp::kMatMulGradB ? in2 : in1;
  switch (zeros) {
    case Zeros::kMixed:
      for (size_t i = 0; i < a_operand.size(); i += 5) a_operand[i] = 0.0f;
      for (size_t i = 3; i < a_operand.size(); i += 11) a_operand[i] = -0.0f;
      break;
    case Zeros::kReluLike:
      for (float& v : a_operand) v = rng.Bernoulli(0.5) ? 0.0f : v;
      break;
    case Zeros::kSingle:
      if (!a_operand.empty()) a_operand[a_operand.size() / 2] = 0.0f;
      break;
    case Zeros::kNegative:
      for (size_t i = 0; i < a_operand.size(); i += 3) a_operand[i] = -0.0f;
      break;
  }
  if (nonfinite_b) {
    std::vector<float>& b_operand = op == GemmOp::kMatMulGradB ? in1 : in2;
    const float inf = std::numeric_limits<float>::infinity();
    for (size_t i = 2; i < b_operand.size(); i += 13) b_operand[i] = inf;
    for (size_t i = 6; i < b_operand.size(); i += 17) b_operand[i] = -inf;
    for (size_t i = 9; i < b_operand.size(); i += 29) {
      b_operand[i] = DefaultNaN();
    }
  }
  std::vector<float> base = RandomVec(rng, out_len);
  for (size_t i = 1; i < base.size(); i += 7) base[i] = -0.0f;

  std::vector<float> expected = base;
  switch (op) {
    case GemmOp::kMatMul:
      reference::MatMul(in1.data(), in2.data(), expected.data(), m, k, n);
      break;
    case GemmOp::kMatMulGradA:
      reference::MatMulGradA(in1.data(), in2.data(), expected.data(), m, k,
                             n);
      break;
    case GemmOp::kMatMulGradB:
      reference::MatMulGradB(in1.data(), in2.data(), expected.data(), m, k,
                             n);
      break;
  }

  for (const GemmSolver* s : Solvers()) {
    for (const Config& config : AllConfigs()) {
      const GemmProblem p{op, m, k, n, config.isa};
      common::ThreadPool::SetGlobalThreadCount(config.threads);
      SetForcedGrainForTesting(config.threads > 1 ? 1 : 0);
      SetIsaOverride(config.isa);
      std::vector<float> got = base;
      s->Run(p, in1.data(), in2.data(), got.data());
      SetIsaOverride(IsaLevel::kScalar, /*has_override=*/false);
      SetForcedGrainForTesting(0);
      common::ThreadPool::SetGlobalThreadCount(0);
      EXPECT_TRUE(got.empty() ||
                  std::memcmp(got.data(), expected.data(),
                              got.size() * sizeof(float)) == 0)
          << s->id() << " " << GemmOpName(op) << " m=" << m << " k=" << k
          << " n=" << n << " " << IsaName(config.isa) << " @"
          << config.threads << " threads";
    }
  }
}

// Operands, seeded output and results of one GEMM run through the public
// kernel entry point and through the reference loops.
struct PublicRun {
  std::vector<float> got;
  std::vector<float> expected;
};

PublicRun RunPublicAndReference(GemmOp op, int64_t m, int64_t k, int64_t n,
                                common::Rng& rng) {
  const auto a = RandomVec(rng, m * k);
  const auto b = RandomVec(rng, k * n);
  const auto g = RandomVec(rng, m * n);
  const int64_t out_len = op == GemmOp::kMatMul
                              ? m * n
                              : (op == GemmOp::kMatMulGradA ? m * k : k * n);
  PublicRun run;
  run.got = RandomVec(rng, out_len);
  run.expected = run.got;
  switch (op) {
    case GemmOp::kMatMul:
      MatMul(a.data(), b.data(), run.got.data(), m, k, n);
      reference::MatMul(a.data(), b.data(), run.expected.data(), m, k, n);
      break;
    case GemmOp::kMatMulGradA:
      MatMulGradA(g.data(), b.data(), run.got.data(), m, k, n);
      reference::MatMulGradA(g.data(), b.data(), run.expected.data(), m, k,
                             n);
      break;
    case GemmOp::kMatMulGradB:
      MatMulGradB(g.data(), a.data(), run.got.data(), m, k, n);
      reference::MatMulGradB(g.data(), a.data(), run.expected.data(), m, k,
                             n);
      break;
  }
  return run;
}

// A shape the static choice runs blocked and one it runs row-axpy.
struct DispatchCase {
  int64_t m, k, n;
  const char* solver_id;
};
constexpr DispatchCase kDispatchCases[] = {{65, 33, 40, "gemm.blocked8x8"},
                                           {65, 33, 1, "gemm.rowaxpy"}};
constexpr GemmOp kAllOps[] = {GemmOp::kMatMul, GemmOp::kMatMulGradA,
                              GemmOp::kMatMulGradB};

TEST(SolverRegistryTest, RegistrationOrderAndDefault) {
  // The fixed solver list kernel_bench and the bit-exact suite enumerate.
  const auto solvers = Solvers();
  ASSERT_EQ(solvers.size(), 2u);
  EXPECT_STREQ(solvers[0]->id(), "gemm.rowaxpy");
  EXPECT_STREQ(solvers[1]->id(), "gemm.blocked8x8");
}

// The next three test names date from when selection read a tuning cache;
// they are kept so test history lines up.

TEST(SolverRegistryTest, ApplicableIsEstimateOrdered) {
  // Blocked once every dimension reaches 32: below that, packing and
  // 8-wide tile edges dominate and row-axpy runs.
  EXPECT_STREQ(SelectSolver(512, 512, 512).id(), "gemm.blocked8x8");
  EXPECT_STREQ(SelectSolver(64, 64, 64).id(), "gemm.blocked8x8");
  EXPECT_STREQ(SelectSolver(32, 32, 32).id(), "gemm.blocked8x8");
  EXPECT_STREQ(SelectSolver(4000, 32, 32).id(), "gemm.blocked8x8");
  EXPECT_STREQ(SelectSolver(31, 512, 512).id(), "gemm.rowaxpy");
  EXPECT_STREQ(SelectSolver(512, 31, 512).id(), "gemm.rowaxpy");
  EXPECT_STREQ(SelectSolver(512, 512, 31).id(), "gemm.rowaxpy");
  EXPECT_STREQ(SelectSolver(4096, 16, 1).id(), "gemm.rowaxpy");
  EXPECT_STREQ(SelectSolver(4, 4, 4).id(), "gemm.rowaxpy");
  EXPECT_STREQ(SelectSolver(0, 64, 64).id(), "gemm.rowaxpy");
}

TEST(SolverRegistryTest, EmptyCacheTakesStaticChoiceAndCounts) {
  // Every dispatch takes the static choice (blocked for a 64^3 cube,
  // row-axpy for a single output column) and increments the retained
  // aliases tensor.solver.cache_miss and tensor.solver.fallback once.
  EXPECT_STREQ(SelectSolver(64, 64, 64).id(), "gemm.blocked8x8");
  EXPECT_STREQ(SelectSolver(4096, 16, 1).id(), "gemm.rowaxpy");
  const int64_t miss0 = CounterValue("tensor.solver.cache_miss");
  const int64_t fallback0 = CounterValue("tensor.solver.fallback");
  common::Rng rng(5);
  RunPublicAndReference(GemmOp::kMatMul, 64, 64, 64, rng);
  RunPublicAndReference(GemmOp::kMatMul, 4096, 16, 1, rng);
  EXPECT_EQ(CounterValue("tensor.solver.cache_miss"), miss0 + 2);
  EXPECT_EQ(CounterValue("tensor.solver.fallback"), fallback0 + 2);
}

TEST(SolverRegistryTest, PublicKernelsDispatchBitExactWithTunedCache) {
  // Through the public kernels, for every op and both solvers, the output
  // matches the reference bit for bit: selection is a speed knob only.
  common::Rng rng(7);
  for (const DispatchCase& c : kDispatchCases) {
    for (const GemmOp op : kAllOps) {
      const PublicRun run = RunPublicAndReference(op, c.m, c.k, c.n, rng);
      EXPECT_EQ(std::memcmp(run.got.data(), run.expected.data(),
                            run.got.size() * sizeof(float)),
                0)
          << GemmOpName(op) << " via " << c.solver_id;
    }
  }
}

TEST(SolverRegistryTest, DispatchCountsTheSolverThatRan) {
  // Each public call counts tensor.solver.ran.<id> for the solver the
  // static choice ran, and nothing for the other.
  common::Rng rng(11);
  for (const DispatchCase& c : kDispatchCases) {
    for (const GemmOp op : kAllOps) {
      const int64_t blocked0 =
          CounterValue("tensor.solver.ran.gemm.blocked8x8");
      const int64_t rowaxpy0 = CounterValue("tensor.solver.ran.gemm.rowaxpy");
      RunPublicAndReference(op, c.m, c.k, c.n, rng);
      const bool blocked = std::strcmp(c.solver_id, "gemm.blocked8x8") == 0;
      EXPECT_STREQ(SelectSolver(c.m, c.k, c.n).id(), c.solver_id);
      EXPECT_EQ(CounterValue("tensor.solver.ran.gemm.blocked8x8"),
                blocked0 + (blocked ? 1 : 0))
          << GemmOpName(op) << " n=" << c.n;
      EXPECT_EQ(CounterValue("tensor.solver.ran.gemm.rowaxpy"),
                rowaxpy0 + (blocked ? 0 : 1))
          << GemmOpName(op) << " n=" << c.n;
    }
  }
}

TEST(SolverBitExactTest, EdgeShapeGridAllOpsAllSolvers) {
  // m/k/n each drawn from the vector-width edge set: 1 and 7 (below one
  // lane group), 8 (exactly one 8-wide tile), 63/64/65 (straddling the
  // 8x8 micro-tile grid), 129 (remainder after 16 full lanes).
  const int64_t kEdge[] = {1, 7, 8, 63, 64, 65, 129};
  common::Rng rng(20260808);
  for (const int64_t m : kEdge) {
    for (const int64_t k : kEdge) {
      for (const int64_t n : kEdge) {
        for (const GemmOp op : {GemmOp::kMatMul, GemmOp::kMatMulGradA,
                                GemmOp::kMatMulGradB}) {
          ExpectAllSolversBitExact(op, m, k, n, rng);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(SolverBitExactTest, DegenerateAndSkewedShapes) {
  common::Rng rng(31337);
  for (const GemmOp op :
       {GemmOp::kMatMul, GemmOp::kMatMulGradA, GemmOp::kMatMulGradB}) {
    ExpectAllSolversBitExact(op, 5, 0, 6, rng);    // k = 0: fwd zeroes,
                                                   // grad_b adds nothing
    ExpectAllSolversBitExact(op, 4, 9, 0, rng);    // n = 0: grad_a still
                                                   // adds +0.0 per element
    ExpectAllSolversBitExact(op, 0, 9, 6, rng);    // m = 0: empty everything
    ExpectAllSolversBitExact(op, 517, 3, 2, rng);  // tall-skinny
    ExpectAllSolversBitExact(op, 2, 3, 517, rng);  // wide
    ExpectAllSolversBitExact(op, 1, 300, 1, rng);  // long pure reduction
  }
}

TEST(SolverBitExactTest, ZeroLadenTilesKeepTheZeroSkip) {
  // The blocked solver runs a tile without zeros on its plain kernel and a
  // tile with zeros on the skipping one; both must reproduce the
  // reference's skip. Shapes cover whole 8x8 tiles, edge tiles and several
  // KC blocks.
  common::Rng rng(4242);
  for (const Zeros zeros : {Zeros::kReluLike, Zeros::kSingle,
                            Zeros::kNegative}) {
    for (const GemmOp op : {GemmOp::kMatMul, GemmOp::kMatMulGradA,
                            GemmOp::kMatMulGradB}) {
      ExpectAllSolversBitExact(op, 64, 64, 64, rng, zeros);
      ExpectAllSolversBitExact(op, 37, 300, 29, rng, zeros);
      ExpectAllSolversBitExact(op, 80, 32, 32, rng, zeros);
    }
  }
}

TEST(SolverBitExactTest, NonFiniteBKeepsTheZeroSkip) {
  // 0 * Inf is NaN: a skipped term that is computed anyway shows up as a
  // NaN output, and an added -0.0 or +0.0 flips a -0.0 accumulator.
  common::Rng rng(777);
  for (const Zeros zeros : {Zeros::kMixed, Zeros::kReluLike,
                            Zeros::kSingle, Zeros::kNegative}) {
    for (const GemmOp op : {GemmOp::kMatMul, GemmOp::kMatMulGradA,
                            GemmOp::kMatMulGradB}) {
      ExpectAllSolversBitExact(op, 64, 40, 64, rng, zeros,
                               /*nonfinite_b=*/true);
      ExpectAllSolversBitExact(op, 23, 9, 17, rng, zeros,
                               /*nonfinite_b=*/true);
    }
  }
}

TEST(SolverBitExactTest, SingleOutputColumn) {
  // n == 1 is the shape of attention scores (rows x d x 1); the row-axpy
  // solver has a dedicated path for it.
  common::Rng rng(1031);
  for (const Zeros zeros : {Zeros::kMixed, Zeros::kReluLike,
                            Zeros::kNegative}) {
    for (const GemmOp op : {GemmOp::kMatMul, GemmOp::kMatMulGradA,
                            GemmOp::kMatMulGradB}) {
      ExpectAllSolversBitExact(op, 1000, 16, 1, rng, zeros);
      ExpectAllSolversBitExact(op, 3, 300, 1, rng, zeros);
      ExpectAllSolversBitExact(op, 517, 1, 1, rng, zeros);
      ExpectAllSolversBitExact(op, 64, 16, 1, rng, zeros,
                               /*nonfinite_b=*/true);
    }
  }
}

TEST(SolverBitExactTest, MultipleKcBlocksKeepAccumulationOrder) {
  // k > 256 spans several KC blocks in the blocked solver; the running-C
  // accumulation across blocks must keep the reference's ascending-p chain.
  common::Rng rng(99);
  for (const GemmOp op :
       {GemmOp::kMatMul, GemmOp::kMatMulGradA, GemmOp::kMatMulGradB}) {
    ExpectAllSolversBitExact(op, 17, 300, 23, rng);
    ExpectAllSolversBitExact(op, 9, 513, 9, rng);
  }
}

}  // namespace
}  // namespace desalign::tensor::kernels::solver
