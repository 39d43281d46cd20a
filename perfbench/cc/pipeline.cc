// The workloads. Each runs the whole pipeline from one process: generate →
// build → Fit with checkpoints → decode sweep → save, load (and quantize,
// and index) a serving table → open-loop serving with reloads. So every
// workload measures every end-to-end metric and every layer; the two
// differ in data, missing-modality regime and retrieval path.

#include <cmath>

#include "kg/presets.h"
#include "workloads.h"

namespace perfbench {

namespace ds = desalign;

namespace {

constexpr int64_t kEntities = 2000;
// The paper's missing-modality regime for dbp_ivf: R_img = R_tex = 0.1.
constexpr double kModalRatio = 0.1;

WorkloadSpec FbdbExact() {
  WorkloadSpec w;
  w.name = "fbdb_exact";
  w.model.data = ds::kg::PresetFbDb15k();
  w.model.data.num_entities = kEntities;
  w.model.quality_depth = 2;
  w.model.quality_csls = false;
  w.ivf = false;
  return w;
}

WorkloadSpec DbpIvf() {
  WorkloadSpec w;
  w.name = "dbp_ivf";
  w.model.data = ds::kg::PresetDbp15k(ds::kg::Dbp15kLang::kZhEn);
  w.model.data.num_entities = kEntities;
  w.model.data.image_ratio = kModalRatio;
  w.model.data.text_ratio = kModalRatio;
  // The decoder the paper prefers on bilingual data (n_p = 1, Fig. 4),
  // with CSLS.
  w.model.quality_depth = 1;
  w.model.quality_csls = true;
  w.ivf = true;
  return w;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& w : {FbdbExact(), DbpIvf()}) {
    if (w.name == name) {
      *spec = w;
      return true;
    }
  }
  return false;
}

WorkloadResult RunWorkload(const RunOptions& options, SpanRecorder& recorder,
                           const WorkloadSpec& spec) {
  WorkloadResult result;
  const double model_setup_s =
      RunModelStages(options, recorder, spec.model, result);
  const double serve_setup_s =
      RunServeStage(options, recorder, spec.ivf, result);
  result.Info("setup_s.model", JsonNumber(model_setup_s));
  result.Info("setup_s.serve", JsonNumber(serve_setup_s));
  result.E2e("setup_s", model_setup_s + serve_setup_s, "s");
  result.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  return result;
}

}  // namespace perfbench
