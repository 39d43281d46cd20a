#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where spans, checkpoints and the detailed report are written, relative
  /// to the checkout the benchmark runs from.
  std::string out_dir = ".bench_out";
  /// Provenance the launcher knows and the binary cannot see.
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Request accounting for one open-loop phase of a workload. Requests are
/// what the serving metrics measure: a late or refused answer is a failed
/// request here and a missed limit in the latency metrics, and on a shared
/// host a stall alone can cause one. So requests are reported per phase
/// and in total in the detailed report, apart from the operations that
/// must never fail (WorkloadResult::attempted / failed).
struct PhaseCount {
  std::string name;
  double offered_qps = 0.0;
  int64_t attempted = 0;
  int64_t ok_on_time = 0;
  int64_t late = 0;      ///< kOk, but after the latency limit
  int64_t rejected = 0;  ///< kRejectedQueueFull
  int64_t deadline = 0;  ///< kDeadlineExceeded
  int64_t invalid = 0;   ///< kInvalidQuery
  int64_t other = 0;     ///< kShutdown or unexpected
  int64_t degraded = 0;  ///< kOk at a degradation rung

  int64_t failed() const { return late + rejected + deadline + invalid + other; }
};

/// Everything one workload run produces. The end-to-end metrics (`e2e`)
/// are what an untraced run prints; `layer` holds the per-layer metrics a
/// traced run prints. `ungated` holds end-to-end metrics that are measured
/// and reported but that BENCHMARK.json does not gate, because their spread
/// over seeds on the reference host reached the largest allowed bound (see
/// README.md). All of them, plus checks, accounting and provenance, go to
/// the detailed report.
struct WorkloadResult {
  std::vector<Metric> e2e;
  std::vector<Metric> ungated;
  std::vector<Metric> layer;
  std::vector<CheckResult> checks;
  std::vector<PhaseCount> phases;
  /// Operations that must never fail: epochs, decodes, reloads. These are
  /// the result line's attempted and failed.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Per-layer metrics this workload cannot measure, with the reason.
  std::vector<std::pair<std::string, std::string>> unmeasured;
  /// Free-form facts for the detailed report (digests, configuration).
  std::vector<std::pair<std::string, std::string>> info;

  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Ungated(const std::string& name, double value, const std::string& unit) {
    ungated.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Check(CheckResult r) { checks.push_back(std::move(r)); }

  /// Requests of every phase, and those that failed.
  int64_t RequestsAttempted() const;
  int64_t RequestsFailed() const;
  bool Correct() const;
};

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

/// Shortest round-trip decimal form of `v` ("null" when not finite).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// The result line: {"correct", "attempted", "failed", "metrics"}. A run
/// with a failed check prints no metric values.
std::string FinalLine(const WorkloadResult& result, bool trace);

/// The full report: provenance, every metric, checks, accounting.
std::string DetailJson(const WorkloadResult& result, const RunOptions& options,
                       double wall_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
