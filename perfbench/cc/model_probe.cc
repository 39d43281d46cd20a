#include "model_probe.h"

#include <algorithm>

#include "align/loss.h"
#include "align/metrics.h"
#include "core/mmsl.h"
#include "core/semantic_propagation.h"
#include "graph/dirichlet.h"
#include "nn/optimizer.h"
#include "stats.h"
#include "tensor/ops.h"

namespace perfbench {

namespace ds = desalign;
namespace ops = desalign::tensor;
using ds::tensor::Tensor;
using ds::tensor::TensorPtr;

namespace {

constexpr int kTrainReps = 5;
constexpr int kDecodeReps = 3;

TensorPtr GradCopy(const TensorPtr& x) {
  return Tensor::FromData(x->rows(), x->cols(), x->data(),
                          /*requires_grad=*/true);
}

TensorPtr RowsCopy(const TensorPtr& x, int64_t start, int64_t count) {
  auto out = Tensor::Create(count, x->cols());
  std::copy(x->data().begin() + start * x->cols(),
            x->data().begin() + (start + count) * x->cols(),
            out->data().begin());
  return out;
}

/// Times `fwd` then `bwd` `reps` times as sibling spans under `parent`;
/// returns the two medians (ms).
std::pair<double, double> TimeFwdBwd(SpanRecorder& recorder,
                                     const std::string& name, int64_t parent,
                                     int reps,
                                     const std::function<TensorPtr()>& fwd) {
  std::vector<double> f;
  std::vector<double> b;
  for (int r = 0; r < reps; ++r) {
    TensorPtr out;
    f.push_back(TimeMedianMs(recorder, name + "_fwd", parent, 1,
                             [&] { out = fwd(); }));
    b.push_back(TimeMedianMs(recorder, name + "_bwd", parent, 1,
                             [&] { out->Backward(); }));
  }
  return {Median(f), Median(b)};
}

}  // namespace

std::vector<TensorPtr> ProbeModel::TrainableParameters() const {
  std::vector<TensorPtr> params = {entity_embeddings_};
  for (const auto* module :
       std::initializer_list<const ds::nn::Module*>{
           gat_.get(), fc_relation_.get(), fc_text_.get(), fc_visual_.get(),
           caw_.get()}) {
    if (module == nullptr) continue;
    const auto more = module->Parameters();
    params.insert(params.end(), more.begin(), more.end());
  }
  return params;
}

std::vector<GemmShape> ProbeModel::TrainGemmShapes(
    const ds::kg::AlignedKgPair& data) const {
  const int64_t n = features_.total();
  const int64_t d = config_.dim;
  const auto b = static_cast<int64_t>(data.train_pairs.size());
  const int64_t modalities = static_cast<int64_t>(ActiveModalities().size());
  return {
      {n, features_.relation->cols(), d, "relation encoder Linear"},
      {n, features_.text->cols(), d, "text encoder Linear"},
      {n, features_.visual->cols(), d, "visual encoder Linear"},
      {n, d, d, "cross-modal attention projection"},
      {b, modalities * d, b, "contrastive loss logits over X^(0)"},
      {b, d, b, "per-modality contrastive loss logits"},
  };
}

GemmShape ProbeModel::DecodeGemmShape(const ds::kg::AlignedKgPair& data) const {
  const auto t = static_cast<int64_t>(data.test_pairs.size());
  const int64_t width =
      config_.dim * static_cast<int64_t>(ActiveModalities().size());
  return {t, width, t, "decode cosine similarity over test pairs"};
}

void ProbeModel::ProbeTrainLayers(const ds::kg::AlignedKgPair& data,
                                  SpanRecorder& recorder,
                                  WorkloadResult& result) {
  const int64_t n = features_.total();
  ForwardState state;
  {
    ds::tensor::NoGradGuard no_grad;
    state = Forward();
  }
  const int64_t root = recorder.Begin("probe.train_layers");

  // graph
  {
    ds::tensor::NoGradGuard no_grad;
    result.Layer("graph.normalize_ms",
                 TimeMedianMs(recorder, "graph.normalize", root, kTrainReps,
                              [&] { (void)graph_union_->NormalizedAdjacency(); }),
                 "ms");
    result.Layer("graph.spmm_ms",
                 TimeMedianMs(recorder, "graph.spmm", root, kTrainReps,
                              [&] { (void)ops::SpMM(norm_adj_union_, state.h_ori); }),
                 "ms");
    result.Layer("graph.dirichlet_ms",
                 TimeMedianMs(recorder, "graph.dirichlet", root, kTrainReps, [&] {
                   (void)ds::graph::DirichletEnergyNode(norm_adj_union_,
                                                        state.h_ori);
                 }),
                 "ms");
  }

  const auto params = TrainableParameters();
  const auto zero_grads = [&] {
    for (const auto& p : params) p->ZeroGrad();
  };

  // nn: GAT encoder over the union graph, and cross-modal attention over
  // the four modality embeddings (inputs detached, so the backward is the
  // module's own).
  const auto [gat_fwd, gat_bwd] =
      TimeFwdBwd(recorder, "nn.gat", root, kTrainReps, [&] {
        return ops::Sum(gat_->Forward(entity_embeddings_, mp_edges_, n));
      });
  zero_grads();
  result.Layer("nn.gat_fwd_ms", gat_fwd, "ms");
  result.Layer("nn.gat_bwd_ms", gat_bwd, "ms");

  std::vector<TensorPtr> modal_inputs;
  for (const auto m : ActiveModalities()) {
    modal_inputs.push_back(state.modal_raw[static_cast<int>(m)]->Detach());
  }
  const auto [caw_fwd, caw_bwd] =
      TimeFwdBwd(recorder, "nn.caw", root, kTrainReps, [&] {
        return ops::Sum(ops::ConcatCols(caw_->Forward(modal_inputs).fused));
      });
  zero_grads();
  result.Layer("nn.caw_fwd_ms", caw_fwd, "ms");
  result.Layer("nn.caw_bwd_ms", caw_bwd, "ms");

  // align: one bidirectional contrastive loss over the seed pairs on the
  // fused X^(0) (training evaluates ten such terms per epoch).
  std::vector<int64_t> src_rows;
  std::vector<int64_t> tgt_rows;
  for (const auto& p : data.train_pairs) {
    src_rows.push_back(p.source);
    tgt_rows.push_back(features_.num_source + p.target);
  }
  const TensorPtr h_ori = GradCopy(state.h_ori);
  const TensorPtr z1 = ops::GatherRows(h_ori, src_rows);
  const TensorPtr z2 = ops::GatherRows(h_ori, tgt_rows);
  const auto [loss_fwd, loss_bwd] =
      TimeFwdBwd(recorder, "align.loss", root, kTrainReps, [&] {
        return ds::align::ContrastiveAlignmentLoss(z1, z2, config_.tau);
      });
  result.Layer("align.loss_fwd_ms", loss_fwd, "ms");
  result.Layer("align.loss_bwd_ms", loss_bwd, "ms");

  // core: the MMSL Dirichlet-energy penalty, forward plus backward.
  const TensorPtr h_mid = GradCopy(state.h_mid);
  const TensorPtr h_fus = GradCopy(state.h_fus);
  result.Layer("core.mmsl_ms",
               TimeMedianMs(recorder, "core.mmsl", root, kTrainReps, [&] {
                 auto penalty = ds::core::MmslPenalty(
                     norm_adj_union_, h_ori, h_mid, h_fus,
                     desalign_config().mmsl);
                 if (penalty) penalty->Backward();
               }),
               "ms");

  // nn: one AdamW step over every trainable tensor.
  for (const auto& p : params) (void)p->grad();
  ds::nn::AdamWConfig opt_config;
  opt_config.lr = config_.lr;
  opt_config.weight_decay = config_.weight_decay;
  ds::nn::AdamW optimizer(params, opt_config);
  result.Layer("nn.adamw_step_ms",
               TimeMedianMs(recorder, "nn.adamw_step", root, kTrainReps,
                            [&] { optimizer.Step(); }),
               "ms");
  zero_grads();
  recorder.End(root);
}

void ProbeModel::ProbeDecodeLayers(const ds::kg::AlignedKgPair& data,
                                   SpanRecorder& recorder,
                                   WorkloadResult& result) {
  ds::tensor::NoGradGuard no_grad;
  const ForwardState state = Forward();
  const int64_t ns = features_.num_source;
  const int64_t nt = features_.num_target;
  const TensorPtr x = state.h_ori->Detach();
  const TensorPtr xs = RowsCopy(x, 0, ns);
  const TensorPtr xt = RowsCopy(x, ns, nt);
  const int64_t root = recorder.Begin("probe.decode_layers");

  // core: semantic propagation of both KGs at the sweep's deepest n_p.
  const std::vector<bool> no_reset_s(static_cast<size_t>(ns), false);
  const std::vector<bool> no_reset_t(static_cast<size_t>(nt), false);
  std::vector<TensorPtr> states_s;
  std::vector<TensorPtr> states_t;
  result.Layer("core.propagation_ms",
               TimeMedianMs(recorder, "core.propagation", root, kDecodeReps, [&] {
                 states_s = ds::core::SemanticPropagation::Run(
                     norm_adj_src_, xs, no_reset_s, 8);
                 states_t = ds::core::SemanticPropagation::Run(
                     norm_adj_tgt_, xt, no_reset_t, 8);
               }),
               "ms");

  // align: similarity, CSLS and ranking over the test pairs.
  std::vector<int64_t> src_rows;
  std::vector<int64_t> tgt_rows;
  for (const auto& p : data.test_pairs) {
    src_rows.push_back(p.source);
    tgt_rows.push_back(p.target);
  }
  const TensorPtr zs = ops::GatherRows(states_s.back(), src_rows);
  const TensorPtr zt = ops::GatherRows(states_t.back(), tgt_rows);
  TensorPtr sim;
  result.Layer("align.cosine_sim_ms",
               TimeMedianMs(recorder, "align.cosine_sim", root, kDecodeReps,
                            [&] { sim = ds::align::CosineSimilarityMatrix(zs, zt); }),
               "ms");
  std::vector<double> csls;
  for (int r = 0; r < kDecodeReps; ++r) {
    const TensorPtr copy = Tensor::FromData(sim->rows(), sim->cols(), sim->data());
    csls.push_back(TimeMedianMs(recorder, "align.csls", root, 1,
                                [&] { ds::align::ApplyCsls(*copy); }));
  }
  result.Layer("align.csls_ms", Median(csls), "ms");
  result.Layer("align.rank_metrics_ms",
               TimeMedianMs(recorder, "align.rank_metrics", root, kDecodeReps,
                            [&] { (void)ds::align::MetricsFromSimilarity(*sim); }),
               "ms");
  recorder.End(root);
}

}  // namespace perfbench
