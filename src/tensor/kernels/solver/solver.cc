#include "tensor/kernels/solver/solver.h"

#include <algorithm>
#include <filesystem>

#include "common/thread_pool.h"
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
  GemmProblem p;
  p.op = op;
  p.m = m;
  p.k = k;
  p.n = n;
  p.isa = ActiveIsa();
  p.threads = common::ThreadPool::Global().num_threads();
  return p;
}

namespace {

// The pre-registry kernels (gemm.cc's row-axpy loop nests). Applicable
// everywhere, so the static choice always exists; its Estimate is the
// baseline the others are priced against.
class RowAxpySolver : public GemmSolver {
 public:
  const char* id() const override { return "gemm.rowaxpy"; }

  bool IsApplicable(const GemmProblem&) const override { return true; }

  double Estimate(const GemmProblem&) const override { return 0.12; }

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

class BlockedGemmSolver : public GemmSolver {
 public:
  const char* id() const override { return "gemm.blocked8x8"; }

  // Applicable to every shape (the scalar microkernel twin covers non-AVX2
  // environments and tile edges), keeping applicability independent of
  // p.isa / p.threads as the determinism contract requires.
  bool IsApplicable(const GemmProblem&) const override { return true; }

  double Estimate(const GemmProblem& p) const override {
    // Packing and 8-wide tile edges dominate while any dimension is short
    // (n == 1 leaves seven of eight lanes idle); past that, the
    // register-resident C tile pays for itself.
    const int64_t inner = std::min(p.m, std::min(p.k, p.n));
    return inner < 32 ? 0.50 : 0.05;
  }

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

}  // namespace

SolverRegistry& SolverRegistry::Global() {
  // Leaked like BufferPool::Global: kernels can run during static
  // destruction of other objects.
  static SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

SolverRegistry::SolverRegistry()
    : cache_hit_(
          obs::MetricsRegistry::Global().GetCounter("tensor.solver.cache_hit")),
      cache_miss_(obs::MetricsRegistry::Global().GetCounter(
          "tensor.solver.cache_miss")),
      fallback_(
          obs::MetricsRegistry::Global().GetCounter("tensor.solver.fallback")),
      cache_errors_(obs::MetricsRegistry::Global().GetCounter(
          "tensor.solver.cache_errors")) {
  // Registration order is the deterministic tie-break everywhere.
  static RowAxpySolver row_axpy;
  static BlockedGemmSolver blocked;
  solvers_ = {&row_axpy, &blocked};
  for (const GemmSolver* s : solvers_) {
    ran_.push_back(&obs::MetricsRegistry::Global().GetCounter(
        std::string("tensor.solver.ran.") + s->id()));
  }
}

const GemmSolver* SolverRegistry::FindById(const std::string& id) const {
  for (const GemmSolver* s : solvers_) {
    if (id == s->id()) return s;
  }
  return nullptr;
}

std::vector<const GemmSolver*> SolverRegistry::Applicable(
    const GemmProblem& p) const {
  std::vector<const GemmSolver*> out;
  for (const GemmSolver* s : solvers_) {
    if (s->IsApplicable(p)) out.push_back(s);
  }
  std::stable_sort(out.begin(), out.end(),
                   [&p](const GemmSolver* a, const GemmSolver* b) {
                     return a->Estimate(p) < b->Estimate(p);
                   });
  return out;
}

const GemmSolver* SolverRegistry::StaticChoice(const GemmProblem& p) const {
  return Applicable(p).front();
}

void SolverRegistry::EnsureCacheLoadedLocked() {
  if (cache_loaded_) return;
  cache_loaded_ = true;
  const std::string path = FindDbPath();
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return;  // untuned: not an error
  auto loaded = FindDb::Load(path);
  if (loaded.ok()) {
    cache_ = std::move(loaded).value();
  } else {
    cache_errors_.Increment();
  }
}

const GemmSolver* SolverRegistry::Select(const GemmProblem& p) {
  {
    common::MutexLock lock(mutex_);
    EnsureCacheLoadedLocked();
    const FindDbRecord* rec = cache_.Find(ProblemKey::FromProblem(p));
    if (rec != nullptr) {
      const GemmSolver* s = FindById(rec->solver_id);
      if (s != nullptr && s->IsApplicable(p)) {
        cache_hit_.Increment();
        return s;
      }
      // Cached winner from another build / no longer applicable: fall back.
    } else {
      cache_miss_.Increment();
    }
  }
  fallback_.Increment();
  return StaticChoice(p);
}

void SolverRegistry::Dispatch(const GemmProblem& p, const float* in1,
                              const float* in2, float* out) {
  const GemmSolver* s = Select(p);
  const auto it = std::find(solvers_.begin(), solvers_.end(), s);
  ran_[static_cast<size_t>(it - solvers_.begin())]->Increment();
  s->Run(p, in1, in2, out);
}

common::Status SolverRegistry::ReloadCache(const std::string& path) {
  auto loaded = FindDb::Load(path);
  common::MutexLock lock(mutex_);
  cache_loaded_ = true;
  if (!loaded.ok()) {
    cache_.Clear();
    cache_errors_.Increment();
    return loaded.status();
  }
  cache_ = std::move(loaded).value();
  return common::Status::Ok();
}

void SolverRegistry::ClearCache() {
  common::MutexLock lock(mutex_);
  cache_.Clear();
  cache_loaded_ = true;
}

int64_t SolverRegistry::CacheSize() const {
  common::MutexLock lock(mutex_);
  return static_cast<int64_t>(cache_.records.size());
}

void DispatchGemm(GemmOp op, const float* in1, const float* in2, float* out,
                  int64_t m, int64_t k, int64_t n) {
  SolverRegistry::Global().Dispatch(GemmProblem::Current(op, m, k, n), in1,
                                    in2, out);
}

}  // namespace desalign::tensor::kernels::solver
