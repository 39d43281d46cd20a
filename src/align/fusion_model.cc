#include "align/fusion_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "align/loss.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "graph/dirichlet.h"
#include "nn/checkpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace desalign::align {

namespace ops = desalign::tensor;
using kg::Modality;
using tensor::Tensor;
using tensor::TensorPtr;

namespace {

constexpr int kM = kg::kNumModalities;

int Index(Modality m) { return static_cast<int>(m); }

}  // namespace

FusionAlignModel::FusionAlignModel(FusionModelConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

std::vector<Modality> FusionAlignModel::ActiveModalities() const {
  std::vector<Modality> active;
  for (Modality m : kg::AllModalities()) {
    if (config_.use_modality[Index(m)]) active.push_back(m);
  }
  DESALIGN_CHECK_MSG(!active.empty(), "all modalities disabled");
  return active;
}

void FusionAlignModel::Prepare(const kg::AlignedKgPair& data) {
  if (prepared_) return;
  prepared_ = true;
  features_ = BuildCombinedFeatures(data, config_.missing_policy, rng_);
  graph_src_.emplace(data.source.BuildGraph());
  graph_tgt_.emplace(data.target.BuildGraph());
  graph_union_.emplace(graph::Graph::DisjointUnion(*graph_src_, *graph_tgt_));
  mp_edges_ = graph_union_->MessagePassingEdges(/*add_self_loops=*/true);
  norm_adj_union_ = graph_union_->NormalizedAdjacency();
  norm_adj_src_ = graph_src_->NormalizedAdjacency();
  norm_adj_tgt_ = graph_tgt_->NormalizedAdjacency();

  const int64_t n = features_.total();
  const int64_t d = config_.dim;
  entity_embeddings_ = Tensor::Create(n, d, /*requires_grad=*/true);
  tensor::GlorotUniform(*entity_embeddings_, rng_);
  gat_ = std::make_unique<nn::GatEncoder>(d, config_.gat_heads,
                                          config_.gat_layers, rng_);
  fc_relation_ =
      std::make_unique<nn::Linear>(features_.relation->cols(), d, rng_);
  fc_text_ = std::make_unique<nn::Linear>(features_.text->cols(), d, rng_);
  fc_visual_ =
      std::make_unique<nn::Linear>(features_.visual->cols(), d, rng_);
  if (config_.use_cross_modal_attention) {
    caw_ = std::make_unique<nn::CrossModalAttention>(
        d, static_cast<int64_t>(ActiveModalities().size()),
        config_.attn_heads, rng_);
  } else {
    global_modality_logits_ = Tensor::Create(1, kM, /*requires_grad=*/true);
  }
}

std::vector<TensorPtr> FusionAlignModel::CollectParameters() const {
  std::vector<TensorPtr> params;
  params.push_back(entity_embeddings_);
  auto extend = [&params](const std::vector<TensorPtr>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  if (config_.use_modality[Index(Modality::kGraph)]) {
    extend(gat_->Parameters());
  }
  if (config_.use_modality[Index(Modality::kRelation)]) {
    extend(fc_relation_->Parameters());
  }
  if (config_.use_modality[Index(Modality::kText)]) {
    extend(fc_text_->Parameters());
  }
  if (config_.use_modality[Index(Modality::kVisual)]) {
    extend(fc_visual_->Parameters());
  }
  if (caw_) extend(caw_->Parameters());
  if (global_modality_logits_) params.push_back(global_modality_logits_);
  return params;
}

int64_t FusionAlignModel::NumParameters() const {
  int64_t total = 0;
  for (const auto& p : CollectParameters()) total += p->size();
  return total;
}

TensorPtr FusionAlignModel::FusedEmbeddings() {
  DESALIGN_CHECK_MSG(prepared_, "FusedEmbeddings requires a fitted model");
  tensor::NoGradGuard no_grad;
  auto state = Forward();
  return state.h_ori->Detach();
}

int64_t FusionAlignModel::num_source_entities() const {
  DESALIGN_CHECK_MSG(prepared_, "num_source_entities requires Fit/Warmup");
  return features_.num_source;
}

FusionAlignModel::ForwardState FusionAlignModel::Forward() {
  DESALIGN_CHECK_MSG(prepared_, "Fit must run before Forward");
  ForwardState state;
  state.modal_raw.assign(kM, nullptr);
  state.modal_mid.assign(kM, nullptr);
  state.modal_fused.assign(kM, nullptr);
  const int64_t n = features_.total();

  // ---- Per-modality encoders (Eq. 7–8) ----
  if (config_.use_modality[Index(Modality::kGraph)]) {
    state.modal_raw[Index(Modality::kGraph)] =
        gat_->Forward(entity_embeddings_, mp_edges_, n);
  }
  if (config_.use_modality[Index(Modality::kRelation)]) {
    state.modal_raw[Index(Modality::kRelation)] =
        fc_relation_->Forward(features_.relation);
  }
  if (config_.use_modality[Index(Modality::kText)]) {
    state.modal_raw[Index(Modality::kText)] =
        fc_text_->Forward(features_.text);
  }
  if (config_.use_modality[Index(Modality::kVisual)]) {
    state.modal_raw[Index(Modality::kVisual)] =
        fc_visual_->Forward(features_.visual);
  }

  const auto active = ActiveModalities();
  std::vector<TensorPtr> active_raw;
  active_raw.reserve(active.size());
  for (Modality m : active) active_raw.push_back(state.modal_raw[Index(m)]);

  if (config_.use_cross_modal_attention) {
    // ---- CAW fusion (Eq. 9–13) ----
    auto caw_out = caw_->Forward(active_raw);
    state.confidence = caw_out.confidence;  // n x |active|
    std::vector<TensorPtr> ori_parts;
    std::vector<TensorPtr> mid_parts;
    std::vector<TensorPtr> fus_parts;
    for (size_t k = 0; k < active.size(); ++k) {
      auto w = ops::SliceCols(state.confidence, static_cast<int64_t>(k), 1);
      state.modal_mid[Index(active[k])] = caw_out.fused_mid[k];
      state.modal_fused[Index(active[k])] = caw_out.fused[k];
      ori_parts.push_back(ops::MulColVector(active_raw[k], w));
      mid_parts.push_back(ops::MulColVector(caw_out.fused_mid[k], w));
      fus_parts.push_back(ops::MulColVector(caw_out.fused[k], w));
    }
    state.h_ori = ops::ConcatCols(ori_parts);  // X^(0)  (Eq. 14)
    state.h_mid = ops::ConcatCols(mid_parts);  // X^(k−1)
    state.h_fus = ops::ConcatCols(fus_parts);  // X^(k)
  } else {
    // ---- EVA-style fusion: global learnable modality weights ----
    auto weights = ops::RowSoftmax(global_modality_logits_);  // 1 x M
    auto ones = Tensor::Full(n, 1, 1.0f);
    std::vector<TensorPtr> parts;
    for (size_t k = 0; k < active.size(); ++k) {
      auto w_scalar = ops::SliceCols(weights, Index(active[k]), 1);  // 1x1
      auto w_col = ops::MatMul(ones, w_scalar);                      // n x 1
      parts.push_back(ops::MulColVector(active_raw[k], w_col));
    }
    state.h_ori = ops::ConcatCols(parts);
  }
  return state;
}

TensorPtr FusionAlignModel::PairConfidence(
    const ForwardState& state, int modality,
    const std::vector<int64_t>& src_rows,
    const std::vector<int64_t>& tgt_rows) const {
  if (!config_.use_min_confidence || !state.confidence) return nullptr;
  // Map the modality index into the active-modality column of w̃.
  const auto active = ActiveModalities();
  int64_t col = -1;
  for (size_t k = 0; k < active.size(); ++k) {
    if (Index(active[k]) == modality) col = static_cast<int64_t>(k);
  }
  if (col < 0) return nullptr;
  const int64_t b = static_cast<int64_t>(src_rows.size());
  auto w = Tensor::Create(b, 1);
  const auto& conf = state.confidence;
  const int64_t mcols = conf->cols();
  for (int64_t i = 0; i < b; ++i) {
    const float ws = conf->data()[src_rows[i] * mcols + col];
    const float wt = conf->data()[tgt_rows[i] * mcols + col];
    // φ_m = Min(w̃_src, w̃_tgt), scaled by |M| so a uniform confidence
    // profile yields weight 1.
    w->data()[i] = std::min(ws, wt) * static_cast<float>(mcols);
  }
  return w;  // constant: confidence gradients flow through the task losses
}

TensorPtr FusionAlignModel::ComputeLoss(
    const ForwardState& state, const std::vector<int64_t>& src_rows,
    const std::vector<int64_t>& tgt_rows) {
  TensorPtr total;
  auto accumulate = [&total](const TensorPtr& term) {
    if (!term) return;
    total = total ? ops::Add(total, term) : term;
  };

  // Rotated targets serve as in-batch negatives for the margin objective.
  std::vector<int64_t> neg_rows(tgt_rows.size());
  for (size_t i = 0; i < tgt_rows.size(); ++i) {
    neg_rows[i] = tgt_rows[(i + 1) % tgt_rows.size()];
  }
  auto pair_loss = [&](const TensorPtr& emb, const TensorPtr& weights) {
    auto z1 = ops::GatherRows(emb, src_rows);
    auto z2 = ops::GatherRows(emb, tgt_rows);
    if (config_.task_loss == TaskLossKind::kMarginRanking) {
      return MarginAlignmentLoss(z1, z2, ops::GatherRows(emb, neg_rows),
                                 config_.margin);
    }
    return ContrastiveAlignmentLoss(z1, z2, config_.tau, weights);
  };

  // L_task^(0) and L_task^(k) (φ = 1 for the joint objectives).
  {
    obs::TraceSpan span("task");
    if (config_.use_initial_task_loss || !state.h_fus) {
      accumulate(pair_loss(state.h_ori, nullptr));
    }
    if (state.h_fus) {
      accumulate(pair_loss(state.h_fus, nullptr));
    }
  }

  // Intra-modal objectives Σ_m (L_m^(k−1) + L_m^(k)).
  if (config_.use_intra_modal_losses) {
    obs::TraceSpan span("intra_modal");
    for (Modality m : ActiveModalities()) {
      const int mi = Index(m);
      auto phi = PairConfidence(state, mi, src_rows, tgt_rows);
      if (state.modal_fused[mi]) {
        accumulate(pair_loss(state.modal_fused[mi], phi));
        if (config_.use_mid_layer_losses && state.modal_mid[mi]) {
          accumulate(pair_loss(state.modal_mid[mi], phi));
        }
      } else {
        // EVA/MCLEA family: intra-modal loss on the raw modality embedding.
        accumulate(pair_loss(state.modal_raw[mi], phi));
      }
    }
  }

  {
    obs::TraceSpan span("extra");
    accumulate(ExtraLoss(state));
  }
  DESALIGN_CHECK(total != nullptr);
  return total;
}

void FusionAlignModel::RunEpochs(const std::vector<kg::AlignmentPair>& seeds,
                                 int epochs) {
  DESALIGN_CHECK(!seeds.empty());
  std::vector<int64_t> src_rows;
  std::vector<int64_t> tgt_rows;
  src_rows.reserve(seeds.size());
  tgt_rows.reserve(seeds.size());
  for (const auto& p : seeds) {
    src_rows.push_back(p.source);
    tgt_rows.push_back(features_.num_source + p.target);
  }

  auto params = CollectParameters();
  nn::AdamWConfig opt_config;
  opt_config.lr = config_.lr;
  opt_config.weight_decay = config_.weight_decay;
  nn::AdamW optimizer(params, opt_config);
  nn::CosineWarmupSchedule schedule(config_.lr, epochs,
                                    config_.warmup_fraction);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& epoch_counter = metrics.GetCounter("train.epochs");
  obs::Counter& nonfinite_counter = metrics.GetCounter("train.nonfinite_skips");
  obs::Counter& rollback_counter = metrics.GetCounter("train.rollbacks");
  obs::Gauge& loss_gauge = metrics.GetGauge("train.loss");
  obs::Histogram& epoch_ms = metrics.GetHistogram("train.epoch_ms");
  obs::Histogram& ckpt_write_ms = metrics.GetHistogram("checkpoint.write_ms");
  common::FaultInjector& faults = common::FaultInjector::Global();

  float best_loss = std::numeric_limits<float>::infinity();
  int stall = 0;
  float lr_scale = 1.0f;  // non-finite-guard backoff; 1.0f multiply is exact
  int start_epoch = 0;
  int bad_streak = 0;

  // Restores model weights, optimizer moments, and the RNG from `ckpt`.
  // `restore_lr_scale` is true on resume; a mid-run rollback keeps the
  // decayed scale so repeated instability keeps shrinking the LR.
  const auto restore = [&](const nn::TrainingCheckpoint& ckpt,
                           bool restore_lr_scale) -> common::Status {
    DESALIGN_RETURN_NOT_OK(nn::RestoreParameters(ckpt.tensors, params));
    if (ckpt.has_optimizer) {
      DESALIGN_RETURN_NOT_OK(
          optimizer.RestoreState(ckpt.opt_step, ckpt.opt_m, ckpt.opt_v));
    }
    if (ckpt.has_rng && !rng_.DeserializeState(ckpt.rng_state)) {
      return common::Status::IoError("checkpoint rng state is malformed");
    }
    if (ckpt.has_train_state) {
      best_loss = ckpt.best_loss;
      stall = ckpt.stall;
      if (restore_lr_scale) lr_scale = ckpt.lr_scale;
    }
    return common::Status::Ok();
  };

  std::optional<nn::CheckpointManager> ckpts;
  if (!config_.checkpoint_dir.empty()) {
    nn::CheckpointManager::Options opts;
    opts.keep_last = config_.checkpoint_keep;
    ckpts.emplace(config_.checkpoint_dir, opts);
    if (const auto st = ckpts->Init(); !st.ok()) {
      DESALIGN_LOG(Warning) << config_.name
                            << ": checkpointing disabled: " << st.ToString();
      ckpts.reset();
    }
  }
  if (ckpts && config_.resume) {
    std::string loaded_path;
    auto loaded = ckpts->LoadLatestValid(&loaded_path);
    if (loaded.ok()) {
      if (const auto st = restore(loaded.value(), /*restore_lr_scale=*/true);
          st.ok()) {
        start_epoch = static_cast<int>(loaded.value().epoch) + 1;
        DESALIGN_LOG(Info) << config_.name << ": resumed from "
                           << loaded_path << " at epoch " << start_epoch;
      } else {
        DESALIGN_LOG(Warning) << config_.name << ": cannot resume from "
                              << loaded_path << ": " << st.ToString();
      }
    } else {
      DESALIGN_LOG(Info) << config_.name << ": nothing to resume ("
                         << loaded.status().ToString() << ")";
    }
  }

  const auto write_checkpoint = [&](int epoch) {
    if (!ckpts) return;
    common::Stopwatch ckpt_clock;
    nn::TrainingCheckpoint ckpt;
    ckpt.epoch = epoch;
    ckpt.tensors = nn::ParameterRecords(params);
    ckpt.has_optimizer = true;
    ckpt.opt_step = optimizer.step_count();
    ckpt.opt_m = optimizer.moment1();
    ckpt.opt_v = optimizer.moment2();
    ckpt.has_rng = true;
    ckpt.rng_state = rng_.SerializeState();
    ckpt.has_train_state = true;
    ckpt.best_loss = best_loss;
    ckpt.stall = stall;
    ckpt.lr_scale = lr_scale;
    if (const auto st = ckpts->Write(ckpt); !st.ok()) {
      // Training outlives a failed checkpoint write; the previous
      // checkpoint is still intact thanks to the atomic publish.
      DESALIGN_LOG(Warning) << config_.name << ": checkpoint write failed: "
                            << st.ToString();
    }
    ckpt_write_ms.Record(ckpt_clock.ElapsedSeconds() * 1e3);
  };

  obs::TraceSpan train_span("train");
  for (int epoch = start_epoch; epoch < epochs; ++epoch) {
    obs::TraceSpan epoch_span("epoch");
    common::Stopwatch epoch_clock;
    optimizer.set_lr(schedule.LrAt(epoch) * lr_scale);
    auto state = [&] {
      obs::TraceSpan span("forward");
      return Forward();
    }();
    TensorPtr loss;
    {
      obs::TraceSpan span("loss");
      loss = ComputeLoss(state, src_rows, tgt_rows);
    }
    optimizer.ZeroGrad();
    {
      obs::TraceSpan span("backward");
      loss->Backward();
      nn::ClipGradNorm(params, config_.grad_clip);
    }

    float loss_value = loss->ScalarValue();
    if (faults.OnSite("train.loss").kind == common::FaultKind::kNan) {
      loss_value = std::numeric_limits<float>::quiet_NaN();
    }
    const bool grads_finite = [&] {
      for (const auto& p : params) {
        if (!p->has_grad()) continue;
        for (float g : p->grad()) {
          if (!std::isfinite(g)) return false;
        }
      }
      return true;
    }();

    if (!std::isfinite(loss_value) || !grads_finite) {
      // Non-finite guard: skip the update, back the LR off, and after
      // max_bad_steps consecutive bad epochs roll back to the last
      // checkpoint (the epoch counter keeps advancing).
      nonfinite_counter.Increment();
      lr_scale *= config_.nonfinite_lr_backoff;
      ++bad_streak;
      DESALIGN_LOG(Warning)
          << config_.name << ": non-finite "
          << (std::isfinite(loss_value) ? "gradients" : "loss")
          << " at epoch " << epoch << "; skipping update (lr_scale="
          << lr_scale << ")";
      if (bad_streak >= config_.max_bad_steps && ckpts) {
        auto latest = ckpts->LoadLatestValid();
        if (latest.ok() &&
            restore(latest.value(), /*restore_lr_scale=*/false).ok()) {
          rollback_counter.Increment();
          bad_streak = 0;
          DESALIGN_LOG(Warning) << config_.name
                                << ": rolled back to checkpoint at epoch "
                                << latest.value().epoch;
        }
      }
      epoch_counter.Increment();
      epoch_ms.Record(epoch_clock.ElapsedSeconds() * 1e3);
      continue;
    }
    bad_streak = 0;
    {
      obs::TraceSpan span("optimizer");
      optimizer.Step();
    }
    if (config_.record_energy_trace) {
      obs::TraceSpan span("energy_trace");
      const EnergySnapshot snap = MeasureDirichletEnergies();
      energy_trace_.push_back(snap);
      metrics.GetSeries("train.energy.initial").Append(snap.e_initial);
      metrics.GetSeries("train.energy.mid").Append(snap.e_mid);
      metrics.GetSeries("train.energy.final").Append(snap.e_final);
    }
    epoch_counter.Increment();
    loss_gauge.Set(loss_value);
    epoch_ms.Record(epoch_clock.ElapsedSeconds() * 1e3);
    bool stop = false;
    if (config_.early_stop_patience > 0) {
      if (loss_value < best_loss - 1e-4f) {
        best_loss = loss_value;
        stall = 0;
      } else if (++stall >= config_.early_stop_patience) {
        DESALIGN_LOG(Debug) << config_.name << ": early stop at epoch "
                            << epoch;
        stop = true;
      }
    }
    if (ckpts && (stop || epoch == epochs - 1 ||
                  (epoch + 1) % std::max(config_.checkpoint_every, 1) == 0)) {
      write_checkpoint(epoch);
    }
    if (stop) break;
    // Fault site "train.epoch": `stop@K` simulates a crash at the end of
    // the K-th trained epoch (the crash-resume integration test).
    if (faults.OnSite("train.epoch").kind == common::FaultKind::kStop) {
      DESALIGN_LOG(Warning) << config_.name
                            << ": injected crash after epoch " << epoch;
      return;
    }
  }
}

void FusionAlignModel::Fit(const kg::AlignedKgPair& data) {
  Prepare(data);
  RunEpochs(data.train_pairs, config_.epochs);
}

void FusionAlignModel::FitMore(const kg::AlignedKgPair& data,
                               const std::vector<kg::AlignmentPair>& seeds,
                               int epochs) {
  Prepare(data);
  RunEpochs(seeds, epochs);
}

void FusionAlignModel::Warmup(const kg::AlignedKgPair& data) {
  Prepare(data);
}

common::Status FusionAlignModel::SaveCheckpoint(
    const std::string& path) const {
  if (!prepared_) {
    return common::Status::FailedPrecondition(
        "model has no parameters yet; Fit or Warmup first");
  }
  // Params-only checkpoint: checksummed and atomically published.
  nn::TrainingCheckpoint ckpt;
  ckpt.tensors = nn::ParameterRecords(CollectParameters());
  return nn::SaveCheckpoint(ckpt, path);
}

common::Status FusionAlignModel::LoadCheckpoint(const std::string& path) {
  if (!prepared_) {
    return common::Status::FailedPrecondition(
        "model has no parameters yet; Warmup with the dataset first");
  }
  DESALIGN_ASSIGN_OR_RETURN(nn::TrainingCheckpoint ckpt,
                            nn::LoadCheckpoint(path));
  return nn::RestoreParameters(ckpt.tensors, CollectParameters());
}

std::vector<int64_t> FusionAlignModel::TestSourceRows(
    const kg::AlignedKgPair& data) const {
  std::vector<int64_t> rows;
  rows.reserve(data.test_pairs.size());
  for (const auto& p : data.test_pairs) rows.push_back(p.source);
  return rows;
}

std::vector<int64_t> FusionAlignModel::TestTargetRows(
    const kg::AlignedKgPair& data) const {
  std::vector<int64_t> rows;
  rows.reserve(data.test_pairs.size());
  for (const auto& p : data.test_pairs) {
    rows.push_back(features_.num_source + p.target);
  }
  return rows;
}

TensorPtr FusionAlignModel::ExtraLoss(const ForwardState&) { return nullptr; }

FusionAlignModel::EnergySnapshot
FusionAlignModel::MeasureDirichletEnergies() {
  DESALIGN_CHECK_MSG(prepared_, "model must be fitted first");
  tensor::NoGradGuard no_grad;
  auto state = Forward();
  EnergySnapshot snap;
  const auto normalize = [&](const TensorPtr& x) {
    if (!x) return 0.0;
    return graph::DirichletEnergy(norm_adj_union_, x) /
           static_cast<double>(x->rows() * x->cols());
  };
  snap.e_initial = normalize(state.h_ori);
  snap.e_mid = normalize(state.h_mid);
  snap.e_final = normalize(state.h_fus);
  return snap;
}

TensorPtr FusionAlignModel::SimilarityFromEmbeddings(
    const ForwardState& state, const kg::AlignedKgPair& data) {
  auto src = ops::GatherRows(state.h_ori, TestSourceRows(data));
  auto tgt = ops::GatherRows(state.h_ori, TestTargetRows(data));
  return CosineSimilarityMatrix(src, tgt);
}

TensorPtr FusionAlignModel::DecodeSimilarity(const kg::AlignedKgPair& data) {
  DESALIGN_CHECK_MSG(prepared_, "DecodeSimilarity requires a fitted model");
  obs::TraceSpan span("decode");
  tensor::NoGradGuard no_grad;
  auto state = Forward();
  auto sim = SimilarityFromEmbeddings(state, data);
  if (config_.use_csls) ApplyCsls(*sim);
  return sim;
}

}  // namespace desalign::align
