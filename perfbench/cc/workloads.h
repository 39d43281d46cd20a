#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "kg/synthetic.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// Set-up is repeated this many times per run and each stage's set-up time
/// is the median.
constexpr int kSetupReps = 3;

/// Shares of --seconds: the decode sweeps stop once kDecodeShare of it is
/// used (after at least two sweeps), and the serving phases together last
/// kServeShare of it. Fit is a fixed amount of work (its epoch count).
constexpr double kDecodeShare = 0.3;
constexpr double kServeShare = 0.7;

/// The model stages of a workload: the KG pair and which decode the
/// quality metrics are read from.
struct ModelSpec {
  desalign::kg::SyntheticSpec data;
  int quality_depth = 2;  ///< n_p of the decode h_at_1 and mrr come from
  bool quality_csls = false;
};

/// One workload: the model stages, then serving.
struct WorkloadSpec {
  std::string name;
  ModelSpec model;
  bool ivf = false;  ///< serve int8 through IvfRetriever, else fp32 brute force
};

/// The workload called `name`, or false when there is none.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// Generate → build → Fit (40 epochs, a checkpoint every 5) → decode
/// sweep over n_p ∈ {1, 2, 4, 8}, each plain and with CSLS. Appends the
/// stage's metrics, checks and accounting to `result` and returns the
/// median set-up time in seconds.
double RunModelStages(const RunOptions& options, SpanRecorder& recorder,
                      const ModelSpec& spec, WorkloadResult& result);

/// Open-loop serving of a 10^5 x 64 table: exact fp32 brute force
/// (`ivf` false) or int8 IVF (`ivf` true). Appends to `result` and returns
/// the median set-up time in seconds.
double RunServeStage(const RunOptions& options, SpanRecorder& recorder,
                     bool ivf, WorkloadResult& result);

/// The whole workload: model stages, serving, and the end-to-end metrics
/// that span both (setup_s, peak_rss_mb).
WorkloadResult RunWorkload(const RunOptions& options, SpanRecorder& recorder,
                           const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
