#include "tensor/kernels/solver/solver.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <string>

#include "obs/metrics.h"
#include "tensor/kernels/internal.h"
#include "tensor/kernels/solver/gemm_blocked.h"

namespace desalign::tensor::kernels::solver {

const char* GemmOpName(GemmOp op) {
  switch (op) {
    case GemmOp::kMatMul:
      return "matmul_fwd";
    case GemmOp::kMatMulGradA:
      return "matmul_grad_a";
    case GemmOp::kMatMulGradB:
      return "matmul_grad_b";
  }
  return "matmul_fwd";
}

GemmProblem GemmProblem::Current(GemmOp op, int64_t m, int64_t k, int64_t n) {
  return GemmProblem{op, m, k, n, ActiveIsa()};
}

namespace {

// gemm.cc's row-axpy loop nests.
class RowAxpySolver final : public GemmSolver {
 public:
  const char* id() const override { return "gemm.rowaxpy"; }

  void Run(const GemmProblem& p, const float* in1, const float* in2,
           float* out) const override {
    switch (p.op) {
      case GemmOp::kMatMul:
        rowaxpy::MatMul(in1, in2, out, p.m, p.k, p.n);
        return;
      case GemmOp::kMatMulGradA:
        rowaxpy::MatMulGradA(in1, in2, out, p.m, p.k, p.n);
        return;
      case GemmOp::kMatMulGradB:
        rowaxpy::MatMulGradB(in1, in2, out, p.m, p.k, p.n);
        return;
    }
  }
};

class BlockedGemmSolver final : public GemmSolver {
 public:
  const char* id() const override { return "gemm.blocked8x8"; }

  // Runs every shape: the scalar microkernel twin covers non-AVX2
  // environments and tile edges.
  void Run(const GemmProblem& p, const float* in1, const float* in2,
           float* out) const override {
    switch (p.op) {
      case GemmOp::kMatMul:
        blocked::MatMul(in1, in2, out, p.m, p.k, p.n, p.isa);
        return;
      case GemmOp::kMatMulGradA:
        blocked::MatMulGradA(in1, in2, out, p.m, p.k, p.n, p.isa);
        return;
      case GemmOp::kMatMulGradB:
        blocked::MatMulGradB(in1, in2, out, p.m, p.k, p.n, p.isa);
        return;
    }
  }
};

const RowAxpySolver kRowAxpy{};
const BlockedGemmSolver kBlocked{};
constexpr const GemmSolver* kSolvers[] = {&kRowAxpy, &kBlocked};
constexpr size_t kRowAxpyIndex = 0;
constexpr size_t kBlockedIndex = 1;

size_t SolverIndex(int64_t m, int64_t k, int64_t n) {
  return std::min({m, k, n}) >= 32 ? kBlockedIndex : kRowAxpyIndex;
}

// obs::MetricsRegistry references are stable forever (see metrics.h), so
// they are resolved once and dispatch only does relaxed atomic adds.
struct DispatchCounters {
  DispatchCounters() {
    for (size_t i = 0; i < ran.size(); ++i) {
      ran[i] = &obs::MetricsRegistry::Global().GetCounter(
          std::string("tensor.solver.ran.") + kSolvers[i]->id());
    }
  }

  // ran[i] counts dispatches that ran kSolvers[i].
  std::array<obs::Counter*, std::size(kSolvers)> ran{};
  // Aliases for readers written against the removed find-db: each counts
  // every dispatch.
  obs::Counter& cache_miss =
      obs::MetricsRegistry::Global().GetCounter("tensor.solver.cache_miss");
  obs::Counter& fallback =
      obs::MetricsRegistry::Global().GetCounter("tensor.solver.fallback");
};

}  // namespace

std::span<const GemmSolver* const> Solvers() { return kSolvers; }

const GemmSolver& SelectSolver(int64_t m, int64_t k, int64_t n) {
  return *kSolvers[SolverIndex(m, k, n)];
}

void DispatchGemm(GemmOp op, const float* in1, const float* in2, float* out,
                  int64_t m, int64_t k, int64_t n) {
  static const DispatchCounters counters;
  const size_t i = SolverIndex(m, k, n);
  counters.ran[i]->Increment();
  counters.cache_miss.Increment();
  counters.fallback.Increment();
  kSolvers[i]->Run(GemmProblem::Current(op, m, k, n), in1, in2, out);
}

}  // namespace desalign::tensor::kernels::solver
