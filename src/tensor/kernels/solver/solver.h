#ifndef DESALIGN_TENSOR_KERNELS_SOLVER_SOLVER_H_
#define DESALIGN_TENSOR_KERNELS_SOLVER_SOLVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/kernels/solver/find_db.h"

// GEMM solver registry, MIOpen-style: several interchangeable
// implementations per op, each declaring IsApplicable/Estimate. Runtime
// dispatch replays the winner per (op, shape-bucket) that `desalign tune`
// chose offline and persisted to a find-db file; without a usable record
// it takes the static choice, the applicable solver with the lowest
// Estimate. It never times anything, so kernel selection is a pure
// function of the tuning file on disk plus the problem shape, and
// therefore deterministic across thread counts, ISA levels and runs.
//
// Every registered solver is bit-identical to kernels/reference.cc (the
// docs/PERFORMANCE.md contract), so which solver the cache picks can only
// change speed, never a single output bit. The `solver`-labeled test suite
// enforces both halves: bit-exactness per solver, determinism of replay.

namespace desalign::tensor::kernels::solver {

/// The three dense-GEMM entry points the registry dispatches
/// (kernels::MatMul / MatMulGradA / MatMulGradB).
enum class GemmOp : uint8_t {
  kMatMul = 0,
  kMatMulGradA = 1,
  kMatMulGradB = 2,
};

/// "matmul_fwd" / "matmul_grad_a" / "matmul_grad_b" — matches the op names
/// kernel_bench emits, so tuning reports and bench JSON line up.
const char* GemmOpName(GemmOp op);

/// One concrete GEMM invocation as the registry sees it. Shapes follow
/// ops::MatMul: a is (m x k), b is (k x n), g/y are (m x n). `isa` and
/// `threads` describe the execution environment; they are part of the
/// problem (solvers may consult them in Estimate) but deliberately NOT part
/// of the persisted cache key — see ProblemKey.
struct GemmProblem {
  GemmOp op = GemmOp::kMatMul;
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  IsaLevel isa = IsaLevel::kScalar;
  int threads = 1;

  /// Problem for the current execution environment (ActiveIsa(), global
  /// thread pool width).
  static GemmProblem Current(GemmOp op, int64_t m, int64_t k, int64_t n);
};

/// A GEMM implementation. All inputs/outputs are row-major contiguous; the
/// operand order matches the public kernels:
///   kMatMul:      in1 = a (m x k), in2 = b (k x n), out = y  (m x n)
///   kMatMulGradA: in1 = g (m x n), in2 = b (k x n), out = ga (m x k)
///   kMatMulGradB: in1 = g (m x n), in2 = a (m x k), out = gb (k x n)
/// Run must be bit-identical to the corresponding reference.cc loop for
/// every applicable problem — including the grads' accumulate-into-out
/// semantics and the reference's skip of zero a-elements.
class GemmSolver {
 public:
  virtual ~GemmSolver() = default;

  /// Stable identifier persisted in the find-db (e.g. "gemm.rowaxpy").
  virtual const char* id() const = 0;

  /// Whether this solver can run `p` at all. Applicability must not depend
  /// on p.isa or p.threads (solvers carry their own scalar fallback paths),
  /// so that cache replay selects identically in every environment.
  virtual bool IsApplicable(const GemmProblem& p) const = 0;

  /// Rough prior in ns per logical element (m·k·n). Orders the tuner's
  /// candidates and makes the static choice on a find-db miss, so it must
  /// depend only on (p.op, p.m, p.k, p.n), never on p.isa or p.threads.
  virtual double Estimate(const GemmProblem& p) const = 0;

  virtual void Run(const GemmProblem& p, const float* in1, const float* in2,
                   float* out) const = 0;
};

/// Process-wide solver table plus the replayed tuning cache.
///
/// The solver list is fixed at construction and immutable afterwards
/// (lock-free to read); the cache is mutex-guarded so `desalign tune` /
/// tests can reload it while other threads keep dispatching.
class SolverRegistry {
 public:
  static SolverRegistry& Global();

  /// All registered solvers, in registration order (deterministic; it
  /// breaks Estimate ties).
  const std::vector<const GemmSolver*>& Solvers() const { return solvers_; }

  /// nullptr when no solver carries `id` (e.g. a find-db written by a newer
  /// build).
  const GemmSolver* FindById(const std::string& id) const;

  /// Solvers whose IsApplicable(p) holds, ordered by Estimate(p) ascending
  /// (ties broken by registration order). This is the tuner's candidate
  /// list; its first entry is StaticChoice(p).
  std::vector<const GemmSolver*> Applicable(const GemmProblem& p) const;

  /// The applicable solver with the lowest Estimate(p), ties to the earlier
  /// registered one: what runs when the find-db has no usable record.
  /// The row-axpy solver is applicable everywhere, so this never fails.
  const GemmSolver* StaticChoice(const GemmProblem& p) const;

  /// Runtime selection: replay the find-db cache, else the static choice.
  /// On the first call the cache is lazily loaded from FindDbPath() (a
  /// missing file is normal — an untuned machine — and simply leaves the
  /// cache empty; a corrupt file counts tensor.solver.cache_errors and is
  /// treated as empty). A miss, or a hit whose solver id is unknown or
  /// inapplicable, counts tensor.solver.fallback and returns
  /// StaticChoice(p). Never returns nullptr and never measures anything.
  const GemmSolver* Select(const GemmProblem& p);

  /// Select, then Run, counting tensor.solver.ran.<id> for the solver that
  /// did the work.
  void Dispatch(const GemmProblem& p, const float* in1, const float* in2,
                float* out);

  /// Replaces the cache with the contents of `path`. On any load error the
  /// cache is cleared (dispatch takes static choices), cache_errors is
  /// incremented, and the error is returned; the process never aborts on a
  /// bad tuning file.
  common::Status ReloadCache(const std::string& path);

  /// Empties the cache (every Select takes the static choice) and
  /// suppresses the lazy default-path load. Tests use this for hermetic
  /// counter assertions.
  void ClearCache();

  /// Number of cached (op, shape-bucket) records.
  int64_t CacheSize() const;

 private:
  SolverRegistry();

  void EnsureCacheLoadedLocked() REQUIRES(mutex_);

  // Immutable after construction — safe to read without the lock.
  // ran_[i] counts dispatches that ran solvers_[i].
  std::vector<const GemmSolver*> solvers_;
  std::vector<obs::Counter*> ran_;

  mutable common::Mutex mutex_;
  FindDb cache_ GUARDED_BY(mutex_);
  bool cache_loaded_ GUARDED_BY(mutex_) = false;

  // obs::MetricsRegistry references are stable forever (see metrics.h).
  obs::Counter& cache_hit_;
  obs::Counter& cache_miss_;
  obs::Counter& fallback_;
  obs::Counter& cache_errors_;
};

/// The dispatch path the public gemm kernels call: builds the problem for
/// the current environment and Dispatches it through the global registry.
void DispatchGemm(GemmOp op, const float* in1, const float* in2, float* out,
                  int64_t m, int64_t k, int64_t n);

}  // namespace desalign::tensor::kernels::solver

#endif  // DESALIGN_TENSOR_KERNELS_SOLVER_SOLVER_H_
