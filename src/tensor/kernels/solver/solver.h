#ifndef DESALIGN_TENSOR_KERNELS_SOLVER_SOLVER_H_
#define DESALIGN_TENSOR_KERNELS_SOLVER_SOLVER_H_

#include <cstdint>
#include <span>

#include "tensor/kernels/dispatch.h"

// GEMM solvers: interchangeable implementations of the three dense-GEMM
// entry points, one of which the public kernels run per call. Every solver
// is bit-identical to kernels/reference.cc (the docs/PERFORMANCE.md
// contract), so which one runs changes speed, never an output bit.
//
// Selection is a fixed function of the shape alone (SelectSolver). It never
// times anything and reads no file, thread count or ISA level, so it is the
// same in every environment and every run, and the dispatch path takes no
// lock and allocates nothing. The `solver`-labeled test suite enforces both
// halves: bit-exactness per solver, determinism of the choice.

namespace desalign::tensor::kernels::solver {

/// The three dense-GEMM entry points (kernels::MatMul / MatMulGradA /
/// MatMulGradB).
enum class GemmOp : uint8_t {
  kMatMul = 0,
  kMatMulGradA = 1,
  kMatMulGradB = 2,
};

/// "matmul_fwd" / "matmul_grad_a" / "matmul_grad_b" — the op names
/// kernel_bench emits.
const char* GemmOpName(GemmOp op);

/// One concrete GEMM invocation. Shapes follow ops::MatMul: a is (m x k),
/// b is (k x n), g/y are (m x n). `isa` picks the microkernel a solver runs;
/// it never picks the solver.
struct GemmProblem {
  GemmOp op = GemmOp::kMatMul;
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  IsaLevel isa = IsaLevel::kScalar;

  /// Problem at the current ActiveIsa().
  static GemmProblem Current(GemmOp op, int64_t m, int64_t k, int64_t n);
};

/// A GEMM implementation. All inputs/outputs are row-major contiguous; the
/// operand order matches the public kernels:
///   kMatMul:      in1 = a (m x k), in2 = b (k x n), out = y  (m x n)
///   kMatMulGradA: in1 = g (m x n), in2 = b (k x n), out = ga (m x k)
///   kMatMulGradB: in1 = g (m x n), in2 = a (m x k), out = gb (k x n)
/// Run must be bit-identical to the corresponding reference.cc loop for
/// every shape — including the grads' accumulate-into-out semantics and
/// the reference's skip of zero a-elements.
class GemmSolver {
 public:
  /// Stable identifier, also the suffix of tensor.solver.ran.<id>.
  virtual const char* id() const = 0;

  virtual void Run(const GemmProblem& p, const float* in1, const float* in2,
                   float* out) const = 0;

 protected:
  // Solvers are never deleted through this interface; a trivial destructor
  // keeps them usable by kernels that run during static destruction.
  ~GemmSolver() = default;
};

/// Every solver, in a fixed order: "gemm.rowaxpy", then "gemm.blocked8x8".
std::span<const GemmSolver* const> Solvers();

/// The solver DispatchGemm runs for an (m x k) by (k x n) product:
/// "gemm.blocked8x8" when min(m, k, n) >= 32, else "gemm.rowaxpy". Below
/// that, packing and 8-wide tile edges cost more than the register-resident
/// C tile saves (n == 1 leaves seven of eight lanes idle).
const GemmSolver& SelectSolver(int64_t m, int64_t k, int64_t n);

/// The dispatch path the public gemm kernels call: runs SelectSolver's
/// choice at the current ISA and counts tensor.solver.ran.<id>, plus the
/// retained aliases tensor.solver.cache_miss and tensor.solver.fallback
/// once per call (docs/OBSERVABILITY.md).
void DispatchGemm(GemmOp op, const float* in1, const float* in2, float* out,
                  int64_t m, int64_t k, int64_t n);

}  // namespace desalign::tensor::kernels::solver

#endif  // DESALIGN_TENSOR_KERNELS_SOLVER_SOLVER_H_
