#include "tensor/kernels/solver/tuner.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace desalign::tensor::kernels::solver {

namespace {

// Min-of-repeats wall time for one solver run, after one warmup (faults
// pages, primes the buffer pool). steady_clock, like kernel_bench — the
// sanctioned monotonic timer.
template <typename Fn>
double MeasureNs(int repeats, const Fn& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < std::max(1, repeats); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best,
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
  }
  return best;
}

std::string JsonNum(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace

std::string TuneReport::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"desalign.tune.v1\",\"cache\":\"" << cache_path
     << "\",\"tuned_at_unix\":" << tuned_at_unix << ",\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const TuneEntry& e = entries[i];
    if (i) os << ",";
    os << "{\"op\":\"" << GemmOpName(e.op) << "\",\"m\":" << e.m
       << ",\"k\":" << e.k << ",\"n\":" << e.n << ",\"bucket\":["
       << static_cast<int>(e.key.bm) << "," << static_cast<int>(e.key.bk)
       << "," << static_cast<int>(e.key.bn) << "],\"winner\":\"" << e.winner
       << "\",\"solvers\":[";
    for (size_t j = 0; j < e.timings.size(); ++j) {
      if (j) os << ",";
      os << "{\"id\":\"" << e.timings[j].id
         << "\",\"ns_per_elem\":" << JsonNum(e.timings[j].ns_per_elem) << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

common::Result<TuneReport> RunTune(const TuneOptions& options) {
  if (options.sizes.empty()) {
    return common::Status::InvalidArgument("tune: no sizes given");
  }
  for (int64_t s : options.sizes) {
    if (s <= 0) {
      return common::Status::InvalidArgument(
          "tune: sizes must be positive, got " + std::to_string(s));
    }
  }

  SolverRegistry& registry = SolverRegistry::Global();
  TuneReport report;
  report.cache_path =
      options.cache_path.empty() ? FindDbPath() : options.cache_path;

  FindDb db;
  // Provenance stamp only — selection never reads it back, so the lint
  // determinism rule does not apply to this one call.
  db.tuned_at_unix = static_cast<int64_t>(
      std::time(nullptr));  // desalign-lint: allow(wall-clock)
  report.tuned_at_unix = db.tuned_at_unix;

  common::Rng rng(20260808);
  for (int64_t size : options.sizes) {
    const int64_t m = size;
    const int64_t k = size;
    const int64_t n = size;
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    std::vector<float> g(static_cast<size_t>(m * n));
    for (auto& x : a) x = rng.UniformF(-1.0f, 1.0f);
    for (auto& x : b) x = rng.UniformF(-1.0f, 1.0f);
    for (auto& x : g) x = rng.UniformF(-1.0f, 1.0f);
    std::vector<float> y(static_cast<size_t>(m * n));
    std::vector<float> ga(static_cast<size_t>(m * k));
    std::vector<float> gb(static_cast<size_t>(k * n));
    const double elems = static_cast<double>(m) * k * n;

    for (const GemmOp op :
         {GemmOp::kMatMul, GemmOp::kMatMulGradA, GemmOp::kMatMulGradB}) {
      const GemmProblem problem = GemmProblem::Current(op, m, k, n);
      const float* in1 = op == GemmOp::kMatMul ? a.data() : g.data();
      const float* in2 = op == GemmOp::kMatMulGradB ? a.data() : b.data();
      float* out = op == GemmOp::kMatMul
                       ? y.data()
                       : (op == GemmOp::kMatMulGradA ? ga.data() : gb.data());

      TuneEntry entry;
      entry.op = op;
      entry.m = m;
      entry.k = k;
      entry.n = n;
      entry.key = ProblemKey::FromProblem(problem);

      double best_ns = std::numeric_limits<double>::infinity();
      double default_ns = 0.0;  // the static choice: what an untuned run gets
      // Candidates come Estimate-ordered; strict < keeps the earlier
      // candidate on an exact tie, so reruns pick the same winner.
      for (const GemmSolver* s : registry.Applicable(problem)) {
        const double ns = MeasureNs(options.repeats, [&] {
          s->Run(problem, in1, in2, out);
        });
        entry.timings.push_back({s->id(), ns / elems});
        if (ns < best_ns) {
          best_ns = ns;
          entry.winner = s->id();
        }
        if (s == registry.StaticChoice(problem)) default_ns = ns;
      }

      FindDbRecord record;
      record.key = entry.key;
      record.solver_id = entry.winner;
      record.best_ns_per_elem = best_ns / elems;
      record.default_ns_per_elem = default_ns / elems;
      db.Upsert(std::move(record));
      report.entries.push_back(std::move(entry));
    }
  }

  DESALIGN_RETURN_NOT_OK(db.Save(report.cache_path));
  // Replay our own winners from the file we just wrote — also proves the
  // round-trip before the CLI reports success.
  DESALIGN_RETURN_NOT_OK(registry.ReloadCache(report.cache_path));
  return report;
}

}  // namespace desalign::tensor::kernels::solver
