// The model stages of a workload: generate the KG pair, build DESAlign,
// Fit with periodic checkpoints (closed loop), then sweep DecodeSimilarity
// over n_p in {1, 2, 4, 8}, each scored plain and with CSLS by
// MetricsFromSimilarity. Fit does tensor, common, nn, align-loss and MMSL
// work; the sweep's cost is similarity over the propagated states.

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>

#include "align/metrics.h"
#include "checks.h"
#include "common/thread_pool.h"
#include "model_probe.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "schedule.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace ds = desalign;
namespace fs = std::filesystem;

namespace {

// 40 epochs leave ten beyond p75, the tail percentile epoch_ms_tail reads.
constexpr int kEpochs = 40;
constexpr int kCheckpointEvery = 5;
constexpr int kPropagationDepths[] = {1, 2, 4, 8};
constexpr int kMinSweeps = 2;
constexpr int kMaxSweeps = 20;
constexpr int64_t kRankCheckRows = 512;

int64_t CountNonFinite(const std::vector<float>& v) {
  int64_t bad = 0;
  for (const float x : v) bad += std::isfinite(x) ? 0 : 1;
  return bad;
}

}  // namespace

double RunModelStages(const RunOptions& options, SpanRecorder& recorder,
                      const ModelSpec& spec, WorkloadResult& result) {
  const int cores = NumCores();
  ds::common::ThreadPool::SetGlobalThreadCount(kTimedThreads);
  RegisterFineHistograms();
  const std::string ckpt_dir =
      options.out_dir + "/ckpt-" + std::to_string(getpid());
  auto& reg = ds::obs::MetricsRegistry::Global();

  // ---- Set-up: generate the KG pair and build the model ----
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  ds::kg::AlignedKgPair data;
  std::unique_ptr<ProbeModel> model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    model.reset();
    data = ds::kg::AlignedKgPair();
    fs::remove_all(ckpt_dir);
    const int64_t span = recorder.Begin("setup.model");
    const int64_t t0 = NowNs();
    generate_ms.push_back(TimeMedianMs(recorder, "kg.generate", span, 1, [&] {
      ds::kg::SyntheticSpec data_spec = spec.data;
      data_spec.seed = SubSeed(options.seed, 1);
      data = ds::kg::GenerateSyntheticPair(data_spec);
    }));
    TimeMedianMs(recorder, "model.warmup", span, 1, [&] {
      ds::core::DesalignConfig config =
          ds::core::DesalignConfig::Default(SubSeed(options.seed, 2));
      config.base.epochs = kEpochs;
      config.base.checkpoint_dir = ckpt_dir;
      config.base.checkpoint_every = kCheckpointEvery;
      config.base.checkpoint_keep = 2;
      model = std::make_unique<ProbeModel>(config);
      model->Warmup(data);
    });
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    recorder.End(span);
  }

  // ---- Timed: Fit ----
  ds::obs::Histogram& epoch_hist = reg.GetHistogram("train.epoch_ms");
  ds::obs::Histogram& ckpt_hist = reg.GetHistogram("checkpoint.write_ms");
  epoch_hist.Reset();
  ckpt_hist.Reset();
  ds::obs::ResetSpanTree();
  const int64_t rollbacks0 = reg.GetCounter("train.rollbacks").value();
  const int64_t skips0 = reg.GetCounter("train.nonfinite_skips").value();
  const TensorCounters tensor0 = TensorCounters::Read();
  double train_s = 0.0;
  {
    const int64_t span = recorder.Begin("train.fit");
    const int64_t t0 = NowNs();
    model->Fit(data);
    train_s = static_cast<double>(NowNs() - t0) / 1e9;
    recorder.End(span);
  }
  const auto span_tree = ds::obs::CollectSpanTree();
  const ds::obs::HistogramSnapshot epochs = epoch_hist.Snapshot();
  const ds::obs::HistogramSnapshot ckpt_writes = ckpt_hist.Snapshot();
  const int64_t rollbacks = reg.GetCounter("train.rollbacks").value() - rollbacks0;
  const int64_t skips = reg.GetCounter("train.nonfinite_skips").value() - skips0;
  const double loss = reg.GetGauge("train.loss").value();
  const auto fused = model->FusedEmbeddings();
  result.Info("digest.fused_embeddings", Hex(DigestFloats(fused->data())));
  result.Check(CheckFiniteLoss(loss));
  result.Check(CheckNoRollbacks(rollbacks, skips));

  // ---- Timed: decode sweeps until their share of the run is used ----
  std::vector<double> sweep_s;
  std::vector<std::vector<double>> decode_ms(std::size(kPropagationDepths));
  std::vector<uint64_t> sweep_digest;
  int64_t spmm_calls_first_sweep = 0;
  ds::align::RankingMetrics quality;
  int64_t non_finite = 0;
  const int64_t sweeps_start = NowNs();
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    const double elapsed = static_cast<double>(NowNs() - sweeps_start) / 1e9;
    if (sweep >= kMinSweeps && elapsed >= kDecodeShare * options.seconds) break;
    const int64_t sweep_span = recorder.Begin("decode.sweep");
    const int64_t iterations0 = reg.GetCounter("propagation.iterations").value();
    const int64_t t0 = NowNs();
    int64_t check_ns = 0;  // the first sweep's checks, kept out of sweep_s
    uint64_t digest = kFnvOffset;
    for (size_t d = 0; d < std::size(kPropagationDepths); ++d) {
      const int np = kPropagationDepths[d];
      model->set_propagation_iterations(np);
      ds::tensor::TensorPtr sim;
      decode_ms[d].push_back(
          TimeMedianMs(recorder, "core.decode.np" + std::to_string(np),
                       sweep_span, 1,
                       [&] { sim = model->DecodeSimilarity(data); }));
      ds::tensor::TensorPtr csls;
      ds::align::RankingMetrics plain;
      ds::align::RankingMetrics with_csls;
      TimeMedianMs(recorder, "align.csls_and_metrics", sweep_span, 1, [&] {
        plain = ds::align::MetricsFromSimilarity(*sim);
        csls = ds::tensor::Tensor::FromData(sim->rows(), sim->cols(), sim->data());
        ds::align::ApplyCsls(*csls);
        with_csls = ds::align::MetricsFromSimilarity(*csls);
      });
      digest = DigestFloats(sim->data(), digest);
      digest = DigestFloats(csls->data(), digest);
      if (sweep == 0) {
        const int64_t check_start = NowNs();
        non_finite += CountNonFinite(sim->data()) + CountNonFinite(csls->data());
        if (np == spec.quality_depth) {
          quality = spec.quality_csls ? with_csls : plain;
        }
        result.Info("h_at_1.np" + std::to_string(np), JsonNumber(plain.h_at_1));
        result.Info("h_at_1.np" + std::to_string(np) + "+csls",
                    JsonNumber(with_csls.h_at_1));
        // MetricsFromSimilarity against a naive recount on sampled rows of
        // the plain and the CSLS-adjusted matrix.
        const auto idx = SampleIndices(SubSeed(options.seed, 3 + np),
                                       sim->rows(), kRankCheckRows);
        for (const auto* m : {&sim, &csls}) {
          const auto sub = SampleSquare(**m, idx);
          result.Check(CheckRankMetrics(
              "rank_metrics_crosscheck.np" + std::to_string(np) +
                  (m == &sim ? "" : "+csls"),
              *sub, ds::align::MetricsFromSimilarity(*sub)));
        }
        check_ns += NowNs() - check_start;
      }
    }
    sweep_s.push_back(static_cast<double>(NowNs() - t0 - check_ns) / 1e9);
    if (sweep == 0) {
      spmm_calls_first_sweep =
          reg.GetCounter("propagation.iterations").value() - iterations0;
    }
    sweep_digest.push_back(digest);
    recorder.End(sweep_span);
  }
  const TensorCounters tensor_delta = TensorCounters::Read().Since(tensor0);

  result.Info("digest.decoded_similarities", Hex(sweep_digest.front()));
  // Every sweep decodes the same model, so every sweep's digest must equal
  // the first one (the determinism contract).
  uint64_t again = sweep_digest.front();
  for (const uint64_t d : sweep_digest) {
    if (d != sweep_digest.front()) {
      again = d;
      break;
    }
  }
  result.Check(CheckSameDigest("decode_repeatable", sweep_digest.front(), again));
  result.Check(CheckZero("decoded_similarities_finite", non_finite));
  // Every epoch, and every depth of every sweep scored plain and with CSLS.
  result.attempted += epochs.count + static_cast<int64_t>(
                                         sweep_s.size() * 2 *
                                         std::size(kPropagationDepths));
  result.failed += skips + (non_finite > 0 ? 1 : 0);

  const double tail_q = TailQuantile(epochs.count);
  result.Info("epoch_ms_tail.percentile", QuantileLabel(tail_q));
  result.Info("epochs", std::to_string(epochs.count));
  result.Info("sweeps", std::to_string(sweep_s.size()));
  result.Info("quality_decoder", "np" + std::to_string(spec.quality_depth) +
                                     (spec.quality_csls ? "+csls" : ""));
  result.Info("model.threads", std::to_string(kTimedThreads));

  result.E2e("train_s", train_s, "s");
  result.E2e("epoch_ms_p50", epochs.Quantile(0.5), "ms");
  result.E2e("epoch_ms_tail", epochs.Quantile(tail_q), "ms");
  result.E2e("decode_s", Median(sweep_s), "s");
  result.E2e("h_at_1", quality.h_at_1, "ratio");
  result.E2e("mrr", quality.mrr, "ratio");

  if (recorder.enabled()) {
    result.Layer("kg.generate_ms", Median(generate_ms), "ms");
    const auto* epoch_node = FindSpan(span_tree, {"train", "epoch"});
    const double per_epoch =
        epoch_node != nullptr ? static_cast<double>(epoch_node->count) : 0.0;
    for (const char* phase : {"forward", "loss", "backward", "optimizer"}) {
      const auto* node = FindSpan(span_tree, {"train", "epoch", phase});
      result.Layer(std::string("train.") + phase + "_ms",
                   node != nullptr && per_epoch > 0.0
                       ? node->total_seconds * 1e3 / per_epoch
                       : std::nan(""),
                   "ms");
    }
    result.Layer("nn.ckpt_write_ms", ckpt_writes.Quantile(0.5), "ms");
    uintmax_t ckpt_bytes = 0;
    for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
      if (entry.is_regular_file()) {
        ckpt_bytes = std::max(ckpt_bytes, entry.file_size());
      }
    }
    result.Layer("nn.ckpt_bytes", static_cast<double>(ckpt_bytes), "B");
    for (size_t d = 0; d < std::size(kPropagationDepths); ++d) {
      result.Layer("core.decode_ms.np" + std::to_string(kPropagationDepths[d]),
                   Median(decode_ms[d]), "ms");
    }
    // Each propagation iteration is one SpMM per KG side; the counter is
    // incremented per side by SemanticPropagation::Run.
    result.Layer("graph.spmm_calls", static_cast<double>(spmm_calls_first_sweep),
                 "count");
    EmitTensorRatios(tensor_delta, result);
    std::vector<GemmShape> shapes = model->TrainGemmShapes(data);
    shapes.push_back(model->DecodeGemmShape(data));
    ProbeGemm(recorder, LargestGemm(shapes), cores, result);
    ProbeParallelFor(recorder, cores, result);
    model->ProbeTrainLayers(data, recorder, result);
    model->ProbeDecodeLayers(data, recorder, result);
  }
  fs::remove_all(ckpt_dir);
  return Median(setup_s);
}

}  // namespace perfbench
