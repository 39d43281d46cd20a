#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "tensor/kernels/buffer_pool.h"
#include "tensor/kernels/elementwise.h"
#include "tensor/kernels/gemm.h"
#include "tensor/kernels/rowwise.h"

namespace desalign::tensor {

namespace {

void CheckSameShape(const TensorPtr& a, const TensorPtr& b) {
  DESALIGN_CHECK_EQ(a->rows(), b->rows());
  DESALIGN_CHECK_EQ(a->cols(), b->cols());
}

}  // namespace

TensorPtr Add(const TensorPtr& a, const TensorPtr& b) {
  CheckSameShape(a, b);
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Add(a->data().data(), b->data().data(), out->data().data(),
               a->size());
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op]() {
    const auto& g = op->grad();
    const int64_t n = static_cast<int64_t>(g.size());
    if (ap->NeedsGrad()) {
      kernels::Accumulate(g.data(), ap->grad().data(), n);
    }
    if (bp->NeedsGrad()) {
      kernels::Accumulate(g.data(), bp->grad().data(), n);
    }
  });
  return out;
}

TensorPtr Sub(const TensorPtr& a, const TensorPtr& b) {
  CheckSameShape(a, b);
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Sub(a->data().data(), b->data().data(), out->data().data(),
               a->size());
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op]() {
    const auto& g = op->grad();
    const int64_t n = static_cast<int64_t>(g.size());
    if (ap->NeedsGrad()) {
      kernels::Accumulate(g.data(), ap->grad().data(), n);
    }
    if (bp->NeedsGrad()) {
      kernels::AccumulateNeg(g.data(), bp->grad().data(), n);
    }
  });
  return out;
}

TensorPtr Mul(const TensorPtr& a, const TensorPtr& b) {
  CheckSameShape(a, b);
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Mul(a->data().data(), b->data().data(), out->data().data(),
               a->size());
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op]() {
    const auto& g = op->grad();
    const int64_t n = static_cast<int64_t>(g.size());
    if (ap->NeedsGrad()) {
      kernels::AccumulateProduct(g.data(), bp->data().data(),
                                 ap->grad().data(), n);
    }
    if (bp->NeedsGrad()) {
      kernels::AccumulateProduct(g.data(), ap->data().data(),
                                 bp->grad().data(), n);
    }
  });
  return out;
}

TensorPtr Div(const TensorPtr& a, const TensorPtr& b) {
  CheckSameShape(a, b);
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Div(a->data().data(), b->data().data(), out->data().data(),
               a->size());
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op]() {
    const auto& g = op->grad();
    const int64_t n = static_cast<int64_t>(g.size());
    if (ap->NeedsGrad()) {
      kernels::AccumulateQuotient(g.data(), bp->data().data(),
                                  ap->grad().data(), n);
    }
    if (bp->NeedsGrad()) {
      kernels::DivGradB(g.data(), ap->data().data(), bp->data().data(),
                        bp->grad().data(), n);
    }
  });
  return out;
}

TensorPtr AddRowVector(const TensorPtr& a, const TensorPtr& b) {
  DESALIGN_CHECK_EQ(b->rows(), 1);
  DESALIGN_CHECK_EQ(a->cols(), b->cols());
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, c);
  kernels::AddRowBroadcast(a->data().data(), b->data().data(),
                           out->data().data(), n, c);
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op, n, c]() {
    const auto& g = op->grad();
    if (ap->NeedsGrad()) {
      kernels::Accumulate(g.data(), ap->grad().data(), n * c);
    }
    if (bp->NeedsGrad()) {
      kernels::ColumnAcc(g.data(), bp->grad().data(), n, c);
    }
  });
  return out;
}

TensorPtr MulColVector(const TensorPtr& a, const TensorPtr& b) {
  DESALIGN_CHECK_EQ(b->cols(), 1);
  DESALIGN_CHECK_EQ(a->rows(), b->rows());
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, c);
  kernels::RowScale(a->data().data(), b->data().data(), out->data().data(),
                    n, c);
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op, n, c]() {
    const auto& g = op->grad();
    if (ap->NeedsGrad()) {
      kernels::RowScaleAcc(g.data(), bp->data().data(), ap->grad().data(), n,
                           c);
    }
    if (bp->NeedsGrad()) {
      kernels::RowDotAcc(g.data(), ap->data().data(), bp->grad().data(), n,
                         c);
    }
  });
  return out;
}

TensorPtr MulRowVector(const TensorPtr& a, const TensorPtr& b) {
  DESALIGN_CHECK_EQ(b->rows(), 1);
  DESALIGN_CHECK_EQ(a->cols(), b->cols());
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, c);
  kernels::MulRowBroadcast(a->data().data(), b->data().data(),
                           out->data().data(), n, c);
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op, n, c]() {
    const auto& g = op->grad();
    if (ap->NeedsGrad()) {
      kernels::MulRowBroadcastAcc(g.data(), bp->data().data(),
                                  ap->grad().data(), n, c);
    }
    if (bp->NeedsGrad()) {
      kernels::ColumnAccMul(g.data(), ap->data().data(), bp->grad().data(),
                            n, c);
    }
  });
  return out;
}

TensorPtr Scale(const TensorPtr& a, float s) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Scale(a->data().data(), s, out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, s]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::Axpy(s, g.data(), ap->grad().data(),
                  static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr AddScalar(const TensorPtr& a, float s) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::AddScalar(a->data().data(), s, out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::Accumulate(g.data(), ap->grad().data(),
                        static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr Neg(const TensorPtr& a) { return Scale(a, -1.0f); }

TensorPtr MatMul(const TensorPtr& a, const TensorPtr& b) {
  DESALIGN_CHECK_EQ(a->cols(), b->rows());
  const int64_t m = a->rows();
  const int64_t k = a->cols();
  const int64_t n = b->cols();
  auto out = Tensor::CreateUninitialized(m, n);
  kernels::MatMul(a->data().data(), b->data().data(), out->data().data(), m,
                  k, n);
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op, m, k, n]() {
    const float* g = op->grad().data();
    if (ap->NeedsGrad()) {
      kernels::MatMulGradA(g, bp->data().data(), ap->grad().data(), m, k, n);
    }
    if (bp->NeedsGrad()) {
      kernels::MatMulGradB(g, ap->data().data(), bp->grad().data(), m, k, n);
    }
  });
  return out;
}

TensorPtr Transpose(const TensorPtr& a) {
  const int64_t m = a->rows();
  const int64_t n = a->cols();
  auto out = Tensor::CreateUninitialized(n, m);
  kernels::Transpose(a->data().data(), out->data().data(), m, n);
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, m, n]() {
    if (!ap->NeedsGrad()) return;
    kernels::TransposeAcc(op->grad().data(), ap->grad().data(), m, n);
  });
  return out;
}

TensorPtr SpMM(const CsrMatrixPtr& a, const TensorPtr& x) {
  DESALIGN_CHECK_EQ(a->cols(), x->rows());
  const int64_t k = x->cols();
  // Multiply zeroes its output rows before accumulating, so an
  // uninitialized output is safe.
  auto out = Tensor::CreateUninitialized(a->rows(), k);
  a->Multiply(x->data().data(), k, out->data().data());
  if (!GradEnabled() || !x->NeedsGrad()) return out;
  CsrMatrixPtr at = a->Transpose();
  Tensor* xp = x.get();
  Tensor* op = out.get();
  out->SetBackward({x}, [at, xp, op, k]() {
    if (!xp->NeedsGrad()) return;
    auto& g = xp->grad();
    const int64_t n = static_cast<int64_t>(g.size());
    kernels::PooledBuffer gx(g.size(), /*zero=*/false);
    at->Multiply(op->grad().data(), k, gx.data());
    kernels::Accumulate(gx.data(), g.data(), n);
  });
  return out;
}

TensorPtr Relu(const TensorPtr& a) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Relu(a->data().data(), out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::ReluGrad(g.data(), ap->data().data(), ap->grad().data(),
                      static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr LeakyRelu(const TensorPtr& a, float slope) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::LeakyRelu(a->data().data(), slope, out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, slope]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::LeakyReluGrad(g.data(), ap->data().data(), slope,
                           ap->grad().data(),
                           static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr Sigmoid(const TensorPtr& a) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Sigmoid(a->data().data(), out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::SigmoidGrad(g.data(), op->data().data(), ap->grad().data(),
                         static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr Tanh(const TensorPtr& a) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Tanh(a->data().data(), out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::TanhGrad(g.data(), op->data().data(), ap->grad().data(),
                      static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr Exp(const TensorPtr& a) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Exp(a->data().data(), out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::AccumulateProduct(g.data(), op->data().data(),
                               ap->grad().data(),
                               static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr LogSafe(const TensorPtr& a, float eps) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::LogEps(a->data().data(), eps, out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, eps]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::LogEpsGrad(g.data(), ap->data().data(), eps, ap->grad().data(),
                        static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr Square(const TensorPtr& a) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Square(a->data().data(), out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::SquareGrad(g.data(), ap->data().data(), ap->grad().data(),
                        static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr Abs(const TensorPtr& a) {
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Abs(a->data().data(), out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::AbsGrad(g.data(), ap->data().data(), ap->grad().data(),
                     static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr ClipByValue(const TensorPtr& a, float lo, float hi) {
  DESALIGN_CHECK_LE(lo, hi);
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  kernels::Clip(a->data().data(), lo, hi, out->data().data(), a->size());
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, lo, hi]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::ClipGrad(g.data(), ap->data().data(), lo, hi,
                      ap->grad().data(), static_cast<int64_t>(g.size()));
  });
  return out;
}

namespace {

template <typename Pick>
TensorPtr SelectElementwise(const TensorPtr& a, const TensorPtr& b,
                            Pick pick_a) {
  CheckSameShape(a, b);
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  std::vector<uint8_t> from_a(static_cast<size_t>(a->size()));
  for (int64_t i = 0; i < a->size(); ++i) {
    from_a[i] = pick_a(a->data()[i], b->data()[i]) ? 1 : 0;
    out->data()[i] = from_a[i] ? a->data()[i] : b->data()[i];
  }
  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  out->SetBackward({a, b}, [ap, bp, op, from_a = std::move(from_a)]() {
    const auto& g = op->grad();
    if (ap->NeedsGrad()) {
      auto& ga = ap->grad();
      for (size_t i = 0; i < g.size(); ++i) {
        if (from_a[i]) ga[i] += g[i];
      }
    }
    if (bp->NeedsGrad()) {
      auto& gb = bp->grad();
      for (size_t i = 0; i < g.size(); ++i) {
        if (!from_a[i]) gb[i] += g[i];
      }
    }
  });
  return out;
}

}  // namespace

TensorPtr MaxElementwise(const TensorPtr& a, const TensorPtr& b) {
  return SelectElementwise(a, b, [](float x, float y) { return x >= y; });
}

TensorPtr MinElementwise(const TensorPtr& a, const TensorPtr& b) {
  return SelectElementwise(a, b, [](float x, float y) { return x <= y; });
}

TensorPtr RowMax(const TensorPtr& a) {
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, 1);
  std::vector<int64_t> argmax(n, 0);
  for (int64_t r = 0; r < n; ++r) {
    float best = a->At(r, 0);
    for (int64_t j = 1; j < c; ++j) {
      if (a->At(r, j) > best) {
        best = a->At(r, j);
        argmax[r] = j;
      }
    }
    out->data()[r] = best;
  }
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, argmax = std::move(argmax), n, c]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    auto& ga = ap->grad();
    for (int64_t r = 0; r < n; ++r) ga[r * c + argmax[r]] += g[r];
  });
  return out;
}

TensorPtr ColMean(const TensorPtr& a) {
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::Create(1, c);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < c; ++j) out->data()[j] += a->At(r, j);
  }
  const float inv = 1.0f / static_cast<float>(n);
  for (auto& v : out->data()) v *= inv;
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, n, c, inv]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    auto& ga = ap->grad();
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t j = 0; j < c; ++j) ga[r * c + j] += g[j] * inv;
    }
  });
  return out;
}

std::vector<int64_t> ArgMaxRows(const Tensor& a) {
  std::vector<int64_t> out(a.rows(), 0);
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t j = 1; j < a.cols(); ++j) {
      if (a.At(r, j) > a.At(r, out[r])) out[r] = j;
    }
  }
  return out;
}

TensorPtr RowSoftmax(const TensorPtr& a) {
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, c);
  kernels::RowSoftmax(a->data().data(), out->data().data(), n, c);
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, n, c]() {
    if (!ap->NeedsGrad()) return;
    kernels::RowSoftmaxGrad(op->data().data(), op->grad().data(),
                            ap->grad().data(), n, c);
  });
  return out;
}

TensorPtr RowLogSoftmax(const TensorPtr& a) {
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, c);
  kernels::RowLogSoftmax(a->data().data(), out->data().data(), n, c);
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, n, c]() {
    if (!ap->NeedsGrad()) return;
    kernels::RowLogSoftmaxGrad(op->data().data(), op->grad().data(),
                               ap->grad().data(), n, c);
  });
  return out;
}

TensorPtr SegmentSoftmax(const TensorPtr& scores,
                         const std::vector<int64_t>& segments,
                         int64_t num_segments) {
  DESALIGN_CHECK_EQ(scores->cols(), 1);
  const int64_t e = scores->rows();
  DESALIGN_CHECK_EQ(static_cast<int64_t>(segments.size()), e);
  auto out = Tensor::CreateUninitialized(e, 1);
  kernels::PooledBuffer seg_max(static_cast<size_t>(num_segments),
                                /*zero=*/false);
  for (int64_t s = 0; s < num_segments; ++s) {
    seg_max.data()[s] = -std::numeric_limits<float>::infinity();
  }
  for (int64_t i = 0; i < e; ++i) {
    seg_max.data()[segments[i]] =
        std::max(seg_max.data()[segments[i]], scores->data()[i]);
  }
  kernels::PooledBuffer seg_denom(static_cast<size_t>(num_segments),
                                  /*zero=*/true);
  for (int64_t i = 0; i < e; ++i) {
    const float ev = std::exp(scores->data()[i] - seg_max.data()[segments[i]]);
    out->data()[i] = ev;
    seg_denom.data()[segments[i]] += ev;
  }
  for (int64_t i = 0; i < e; ++i) {
    out->data()[i] /= seg_denom.data()[segments[i]];
  }
  Tensor* sp = scores.get();
  Tensor* op = out.get();
  std::vector<int64_t> segs = segments;
  out->SetBackward({scores}, [sp, op, segs = std::move(segs), num_segments,
                              e]() {
    if (!sp->NeedsGrad()) return;
    const auto& g = op->grad();
    auto& gs = sp->grad();
    kernels::PooledBuffer seg_dot(static_cast<size_t>(num_segments),
                                  /*zero=*/true);
    for (int64_t i = 0; i < e; ++i)
      seg_dot.data()[segs[i]] += g[i] * op->data()[i];
    for (int64_t i = 0; i < e; ++i) {
      gs[i] += op->data()[i] * (g[i] - seg_dot.data()[segs[i]]);
    }
  });
  return out;
}

TensorPtr BidirectionalInfoNce(const TensorPtr& a, const TensorPtr& b,
                               float tau, const TensorPtr& weights) {
  CheckSameShape(a, b);
  const int64_t n = a->rows();
  const int64_t d = a->cols();
  const float* w = nullptr;
  if (weights) {
    DESALIGN_CHECK_EQ(weights->rows(), n);
    DESALIGN_CHECK_EQ(weights->cols(), 1);
    DESALIGN_CHECK_MSG(!weights->NeedsGrad(),
                       "BidirectionalInfoNce weights are constants");
    w = weights->data().data();
  }
  const float inv_tau = 1.0f / tau;
  // The only N x N buffer: raw logits, then scaled logits until backward
  // overwrites them with their own gradient.
  kernels::PooledBuffer logits(static_cast<size_t>(n * n), /*zero=*/false);
  {
    kernels::PooledBuffer bt(static_cast<size_t>(d * n), /*zero=*/false);
    kernels::Transpose(b->data().data(), bt.data(), n, d);
    kernels::MatMul(a->data().data(), bt.data(), logits.data(), n, d, n);
  }
  kernels::PooledBuffer row_logz(static_cast<size_t>(n), /*zero=*/false);
  kernels::PooledBuffer col_logz(static_cast<size_t>(n), /*zero=*/false);
  kernels::InfoNceLogSumExp(logits.data(), inv_tau, row_logz.data(),
                            col_logz.data(), n);
  // The per-pair terms and their mean, in the unfused ops' order and
  // precision: Neg, Add, Scale(0.5), Mul, then Sum's double accumulator.
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float diag = logits.data()[i * n + i];
    const float fwd = -1.0f * (diag - row_logz.data()[i]);
    const float bwd = -1.0f * (diag - col_logz.data()[i]);
    float pair = 0.5f * (fwd + bwd);
    if (w != nullptr) pair = pair * w[i];
    acc += pair;
  }
  const float inv_n = 1.0f / static_cast<float>(n);
  auto out = Tensor::CreateUninitialized(1, 1);
  out->data()[0] = inv_n * static_cast<float>(acc);

  Tensor* ap = a.get();
  Tensor* bp = b.get();
  Tensor* op = out.get();
  std::vector<TensorPtr> parents = {a, b};
  if (weights) parents.push_back(weights);
  out->SetBackward(
      std::move(parents),
      [ap, bp, op, w, n, d, inv_tau, inv_n, logits = std::move(logits),
       row_logz = std::move(row_logz),
       col_logz = std::move(col_logz)]() mutable {
        // Replays the unfused backward seed chain per pair: each gradient
        // buffer starts at +0.0, so every step is `0 + expr` (which turns
        // a -0.0 into +0.0 exactly as the tape does): Mean's Scale, Sum,
        // Mul, Scale(0.5), Add, Neg, TakeDiag.
        const float g_sum = 0.0f + inv_n * op->grad()[0];
        kernels::PooledBuffer seed(static_cast<size_t>(n), /*zero=*/false);
        for (int64_t i = 0; i < n; ++i) {
          float g = 0.0f + g_sum;
          if (w != nullptr) g = 0.0f + g * w[i];
          const float g_pair = 0.0f + 0.5f * g;
          const float g_diag = 0.0f + -1.0f * (0.0f + g_pair);
          seed.data()[i] = 0.0f + g_diag;
        }
        kernels::InfoNceLogitsGrad(logits.data(), row_logz.data(),
                                   col_logz.data(), seed.data(), inv_tau, n);
        const float* g = logits.data();
        if (ap->NeedsGrad()) {
          kernels::PooledBuffer bt(static_cast<size_t>(d * n),
                                   /*zero=*/false);
          kernels::Transpose(bp->data().data(), bt.data(), n, d);
          kernels::MatMulGradA(g, bt.data(), ap->grad().data(), n, d, n);
        }
        if (bp->NeedsGrad()) {
          kernels::PooledBuffer gbt(static_cast<size_t>(d * n),
                                    /*zero=*/true);
          kernels::MatMulGradB(g, ap->data().data(), gbt.data(), n, d, n);
          kernels::TransposeAcc(gbt.data(), bp->grad().data(), n, d);
        }
      });
  return out;
}

TensorPtr Sum(const TensorPtr& a) {
  auto out = Tensor::CreateUninitialized(1, 1);
  double acc = 0.0;
  for (int64_t i = 0; i < a->size(); ++i) acc += a->data()[i];
  out->data()[0] = static_cast<float>(acc);
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op]() {
    if (!ap->NeedsGrad()) return;
    const float g = op->grad()[0];
    auto& ga = ap->grad();
    kernels::AccumulateConstant(g, ga.data(),
                                static_cast<int64_t>(ga.size()));
  });
  return out;
}

TensorPtr Mean(const TensorPtr& a) {
  const float inv = 1.0f / static_cast<float>(a->size());
  return Scale(Sum(a), inv);
}

TensorPtr RowSum(const TensorPtr& a) {
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, 1);
  for (int64_t r = 0; r < n; ++r) {
    float acc = 0.0f;
    for (int64_t j = 0; j < c; ++j) acc += a->At(r, j);
    out->data()[r] = acc;
  }
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, n, c]() {
    if (!ap->NeedsGrad()) return;
    kernels::AddColBroadcastAcc(op->grad().data(), ap->grad().data(), n, c);
  });
  return out;
}

TensorPtr SegmentSum(const TensorPtr& values,
                     const std::vector<int64_t>& segments,
                     int64_t num_segments) {
  const int64_t e = values->rows();
  const int64_t c = values->cols();
  DESALIGN_CHECK_EQ(static_cast<int64_t>(segments.size()), e);
  auto out = Tensor::Create(num_segments, c);
  kernels::ScatterAddRows(values->data().data(), segments.data(),
                          out->data().data(), e, c);
  Tensor* vp = values.get();
  Tensor* op = out.get();
  std::vector<int64_t> segs = segments;
  out->SetBackward({values}, [vp, op, segs = std::move(segs), e, c]() {
    if (!vp->NeedsGrad()) return;
    kernels::GatherRowsAcc(op->grad().data(), segs.data(), vp->grad().data(),
                           e, c);
  });
  return out;
}

TensorPtr ConcatCols(const std::vector<TensorPtr>& parts) {
  DESALIGN_CHECK(!parts.empty());
  const int64_t n = parts[0]->rows();
  int64_t total_c = 0;
  for (const auto& p : parts) {
    DESALIGN_CHECK_EQ(p->rows(), n);
    total_c += p->cols();
  }
  auto out = Tensor::CreateUninitialized(n, total_c);
  int64_t offset = 0;
  for (const auto& p : parts) {
    kernels::CopyDenseToStrided(p->data().data(),
                                out->data().data() + offset, total_c, n,
                                p->cols());
    offset += p->cols();
  }
  std::vector<TensorPtr> parents = parts;
  Tensor* op = out.get();
  std::vector<Tensor*> raw;
  std::vector<int64_t> col_counts;
  for (const auto& p : parts) {
    raw.push_back(p.get());
    col_counts.push_back(p->cols());
  }
  out->SetBackward(std::move(parents), [op, raw = std::move(raw),
                                        col_counts = std::move(col_counts), n,
                                        total_c]() {
    const auto& g = op->grad();
    int64_t offset2 = 0;
    for (size_t k = 0; k < raw.size(); ++k) {
      const int64_t c = col_counts[k];
      if (raw[k]->NeedsGrad()) {
        kernels::AccStridedToDense(g.data() + offset2, total_c,
                                   raw[k]->grad().data(), n, c);
      }
      offset2 += c;
    }
  });
  return out;
}

TensorPtr ConcatRows(const std::vector<TensorPtr>& parts) {
  DESALIGN_CHECK(!parts.empty());
  const int64_t c = parts[0]->cols();
  int64_t total_n = 0;
  for (const auto& p : parts) {
    DESALIGN_CHECK_EQ(p->cols(), c);
    total_n += p->rows();
  }
  auto out = Tensor::CreateUninitialized(total_n, c);
  int64_t offset = 0;
  for (const auto& p : parts) {
    std::copy(p->data().begin(), p->data().end(),
              out->data().begin() + offset * c);
    offset += p->rows();
  }
  std::vector<TensorPtr> parents = parts;
  Tensor* op = out.get();
  std::vector<Tensor*> raw;
  std::vector<int64_t> row_counts;
  for (const auto& p : parts) {
    raw.push_back(p.get());
    row_counts.push_back(p->rows());
  }
  out->SetBackward(std::move(parents),
                   [op, raw = std::move(raw),
                    row_counts = std::move(row_counts), c]() {
                     const auto& g = op->grad();
                     int64_t offset2 = 0;
                     for (size_t k = 0; k < raw.size(); ++k) {
                       const int64_t n = row_counts[k];
                       if (raw[k]->NeedsGrad()) {
                         kernels::Accumulate(g.data() + offset2 * c,
                                             raw[k]->grad().data(), n * c);
                       }
                       offset2 += n;
                     }
                   });
  return out;
}

TensorPtr SliceCols(const TensorPtr& a, int64_t start, int64_t count) {
  DESALIGN_CHECK_GE(start, 0);
  DESALIGN_CHECK_GT(count, 0);
  DESALIGN_CHECK_LE(start + count, a->cols());
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, count);
  kernels::CopyStridedToDense(a->data().data() + start, c,
                              out->data().data(), n, count);
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, start, count, n, c]() {
    if (!ap->NeedsGrad()) return;
    kernels::AccDenseToStrided(op->grad().data(),
                               ap->grad().data() + start, c, n, count);
  });
  return out;
}

TensorPtr GatherRows(const TensorPtr& a, std::vector<int64_t> indices) {
  const int64_t e = static_cast<int64_t>(indices.size());
  DESALIGN_CHECK_GT(e, 0);
  const int64_t c = a->cols();
  for (int64_t idx : indices) {
    DESALIGN_CHECK(idx >= 0 && idx < a->rows());
  }
  auto out = Tensor::CreateUninitialized(e, c);
  kernels::GatherRows(a->data().data(), indices.data(), out->data().data(),
                      e, c);
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, indices = std::move(indices), e, c]() {
    if (!ap->NeedsGrad()) return;
    kernels::ScatterAddRows(op->grad().data(), indices.data(),
                            ap->grad().data(), e, c);
  });
  return out;
}

TensorPtr TakeDiag(const TensorPtr& a) {
  DESALIGN_CHECK_EQ(a->rows(), a->cols());
  const int64_t n = a->rows();
  auto out = Tensor::CreateUninitialized(n, 1);
  for (int64_t i = 0; i < n; ++i) out->data()[i] = a->At(i, i);
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, n]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    auto& ga = ap->grad();
    for (int64_t i = 0; i < n; ++i) ga[i * n + i] += g[i];
  });
  return out;
}

TensorPtr RowL2Normalize(const TensorPtr& a, float eps) {
  const int64_t n = a->rows();
  const int64_t c = a->cols();
  auto out = Tensor::CreateUninitialized(n, c);
  kernels::PooledBuffer norms(static_cast<size_t>(n), /*zero=*/false);
  kernels::RowL2Normalize(a->data().data(), eps, out->data().data(),
                          norms.data(), n, c);
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, norms = std::move(norms), n, c]() {
    if (!ap->NeedsGrad()) return;
    kernels::RowL2NormalizeGrad(op->data().data(), op->grad().data(),
                                norms.data(), ap->grad().data(), n, c);
  });
  return out;
}

TensorPtr LayerNorm(const TensorPtr& x, const TensorPtr& gamma,
                    const TensorPtr& beta, float eps) {
  const int64_t n = x->rows();
  const int64_t c = x->cols();
  DESALIGN_CHECK_EQ(gamma->rows(), 1);
  DESALIGN_CHECK_EQ(gamma->cols(), c);
  DESALIGN_CHECK_EQ(beta->rows(), 1);
  DESALIGN_CHECK_EQ(beta->cols(), c);
  auto out = Tensor::CreateUninitialized(n, c);
  kernels::PooledBuffer inv_sigma(static_cast<size_t>(n), /*zero=*/false);
  kernels::PooledBuffer xhat(static_cast<size_t>(n * c), /*zero=*/false);
  kernels::LayerNormForward(x->data().data(), gamma->data().data(),
                            beta->data().data(), eps, out->data().data(),
                            xhat.data(), inv_sigma.data(), n, c);
  Tensor* xp = x.get();
  Tensor* gp = gamma.get();
  Tensor* bp = beta.get();
  Tensor* op = out.get();
  out->SetBackward({x, gamma, beta}, [xp, gp, bp, op,
                                      inv_sigma = std::move(inv_sigma),
                                      xhat = std::move(xhat), n, c]() {
    const auto& g = op->grad();
    if (gp->NeedsGrad()) {
      kernels::ColumnAccMul(g.data(), xhat.data(), gp->grad().data(), n, c);
    }
    if (bp->NeedsGrad()) {
      kernels::ColumnAcc(g.data(), bp->grad().data(), n, c);
    }
    if (xp->NeedsGrad()) {
      kernels::LayerNormGradX(g.data(), gp->data().data(), xhat.data(),
                              inv_sigma.data(), xp->grad().data(), n, c);
    }
  });
  return out;
}

TensorPtr Dropout(const TensorPtr& a, float p, common::Rng& rng,
                  bool training) {
  if (!training || p <= 0.0f) return a;
  DESALIGN_CHECK_LT(p, 1.0f);
  const float keep = 1.0f - p;
  auto out = Tensor::CreateUninitialized(a->rows(), a->cols());
  // The mask must be drawn sequentially (the rng stream is part of the
  // training contract), so the forward loop stays serial.
  kernels::PooledBuffer mask(static_cast<size_t>(a->size()), /*zero=*/false);
  for (int64_t i = 0; i < a->size(); ++i) {
    mask.data()[i] = rng.Bernoulli(keep) ? 1.0f / keep : 0.0f;
    out->data()[i] = a->data()[i] * mask.data()[i];
  }
  Tensor* ap = a.get();
  Tensor* op = out.get();
  out->SetBackward({a}, [ap, op, mask = std::move(mask)]() {
    if (!ap->NeedsGrad()) return;
    const auto& g = op->grad();
    kernels::AccumulateProduct(g.data(), mask.data(), ap->grad().data(),
                               static_cast<int64_t>(g.size()));
  });
  return out;
}

TensorPtr RowDot(const TensorPtr& a, const TensorPtr& b) {
  return RowSum(Mul(a, b));
}

TensorPtr SumSquares(const TensorPtr& a) { return Sum(Square(a)); }

}  // namespace desalign::tensor
