#ifndef DESALIGN_TENSOR_OPS_H_
#define DESALIGN_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace desalign::tensor {

// Differentiable operations. Every function returns a fresh node wired into
// the autograd graph (when gradients are enabled and some input requires
// them). Shapes are validated with CHECK macros — a mismatch is a
// programming error, not a recoverable condition.

// ---- Elementwise binary (same shape) ----

/// c = a + b.
TensorPtr Add(const TensorPtr& a, const TensorPtr& b);
/// c = a - b.
TensorPtr Sub(const TensorPtr& a, const TensorPtr& b);
/// c = a ⊙ b (Hadamard).
TensorPtr Mul(const TensorPtr& a, const TensorPtr& b);
/// c = a / b (elementwise; caller guarantees b != 0).
TensorPtr Div(const TensorPtr& a, const TensorPtr& b);

// ---- Broadcasting ----

/// Adds row vector b (1 x C) to every row of a (N x C).
TensorPtr AddRowVector(const TensorPtr& a, const TensorPtr& b);
/// Multiplies every row r of a (N x C) by scalar b[r] (b is N x 1).
TensorPtr MulColVector(const TensorPtr& a, const TensorPtr& b);
/// Multiplies every row of a (N x C) entrywise by row vector b (1 x C);
/// equivalent to a * diag(b) — the paper's diagonal weight matrix.
TensorPtr MulRowVector(const TensorPtr& a, const TensorPtr& b);

// ---- Scalar-constant ops ----

/// c = s * a.
TensorPtr Scale(const TensorPtr& a, float s);
/// c = a + s (entrywise constant shift).
TensorPtr AddScalar(const TensorPtr& a, float s);
/// c = -a.
TensorPtr Neg(const TensorPtr& a);

// ---- Linear algebra ----

/// Matrix product (M x K) * (K x N) -> (M x N).
TensorPtr MatMul(const TensorPtr& a, const TensorPtr& b);
/// Transpose (M x N) -> (N x M).
TensorPtr Transpose(const TensorPtr& a);
/// Sparse-dense product A (R x C sparse) * x (C x K) -> (R x K). The sparse
/// operand is a constant (no gradient flows into it).
TensorPtr SpMM(const CsrMatrixPtr& a, const TensorPtr& x);

// ---- Elementwise nonlinearities ----

TensorPtr Relu(const TensorPtr& a);
/// max(x, slope*x); slope in (0, 1).
TensorPtr LeakyRelu(const TensorPtr& a, float slope = 0.2f);
TensorPtr Sigmoid(const TensorPtr& a);
TensorPtr Tanh(const TensorPtr& a);
TensorPtr Exp(const TensorPtr& a);
/// log(a + eps); eps guards against log(0).
TensorPtr LogSafe(const TensorPtr& a, float eps = 1e-12f);
/// a^2, entrywise.
TensorPtr Square(const TensorPtr& a);
/// |a|, entrywise (subgradient 0 at 0).
TensorPtr Abs(const TensorPtr& a);
/// Clamps entries into [lo, hi]; gradient is 1 strictly inside the range.
TensorPtr ClipByValue(const TensorPtr& a, float lo, float hi);
/// Entrywise maximum / minimum of two equally shaped tensors; the
/// gradient follows the selected operand (ties go to `a`).
TensorPtr MaxElementwise(const TensorPtr& a, const TensorPtr& b);
TensorPtr MinElementwise(const TensorPtr& a, const TensorPtr& b);

// ---- Softmax ----

/// Softmax across each row (numerically stabilized).
TensorPtr RowSoftmax(const TensorPtr& a);
/// Log-softmax across each row.
TensorPtr RowLogSoftmax(const TensorPtr& a);
/// Softmax over entries of a column vector (E x 1) grouped by segment id;
/// used for GAT edge attention (segments = destination nodes).
TensorPtr SegmentSoftmax(const TensorPtr& scores,
                         const std::vector<int64_t>& segments,
                         int64_t num_segments);
/// Bidirectional in-batch softmax cross-entropy with the diagonal as the
/// targets, in one node: with logits L = (a bᵀ) / tau (a, b are N x D),
///   mean_i( w_i * 0.5 * (−log_softmax_row(L)[i,i] − log_softmax_col(L)[i,i]) ).
/// Bit-identical in value and gradients to composing MatMul, Transpose,
/// Scale, RowLogSoftmax in both directions, TakeDiag, Neg, Add, Scale, Mul
/// and Mean, but keeps one N x N buffer alive until backward instead of
/// about ten. `weights` (N x 1, optional) is a constant: it must not need a
/// gradient.
TensorPtr BidirectionalInfoNce(const TensorPtr& a, const TensorPtr& b,
                               float tau,
                               const TensorPtr& weights = nullptr);

// ---- Reductions ----

/// Sum of all entries -> 1x1.
TensorPtr Sum(const TensorPtr& a);
/// Mean of all entries -> 1x1.
TensorPtr Mean(const TensorPtr& a);
/// Per-row sum (N x C) -> (N x 1).
TensorPtr RowSum(const TensorPtr& a);
/// Per-row maximum (N x C) -> (N x 1); gradient routes to the (first)
/// argmax entry per row.
TensorPtr RowMax(const TensorPtr& a);
/// Column means (N x C) -> (1 x C).
TensorPtr ColMean(const TensorPtr& a);
/// Index of the per-row maximum (plain helper, no autograd).
std::vector<int64_t> ArgMaxRows(const Tensor& a);
/// Scatter-add of rows: out[segments[e], :] += values[e, :]; out is
/// (num_segments x C). Used to aggregate GAT messages at destinations.
TensorPtr SegmentSum(const TensorPtr& values,
                     const std::vector<int64_t>& segments,
                     int64_t num_segments);

// ---- Shape ops ----

/// Horizontal concatenation of tensors with equal row counts.
TensorPtr ConcatCols(const std::vector<TensorPtr>& parts);
/// Vertical concatenation of tensors with equal column counts.
TensorPtr ConcatRows(const std::vector<TensorPtr>& parts);
/// Column slice [start, start+count).
TensorPtr SliceCols(const TensorPtr& a, int64_t start, int64_t count);
/// Row gather: out[e, :] = a[indices[e], :].
TensorPtr GatherRows(const TensorPtr& a, std::vector<int64_t> indices);
/// Diagonal of a square matrix -> (N x 1).
TensorPtr TakeDiag(const TensorPtr& a);

// ---- Normalization / regularization ----

/// Rows scaled to unit l2 norm: out_r = a_r / sqrt(||a_r||^2 + eps).
TensorPtr RowL2Normalize(const TensorPtr& a, float eps = 1e-12f);
/// Row-wise layer normalization with learnable gamma/beta (both 1 x C).
TensorPtr LayerNorm(const TensorPtr& x, const TensorPtr& gamma,
                    const TensorPtr& beta, float eps = 1e-5f);
/// Inverted dropout; identity when `training` is false or p == 0.
TensorPtr Dropout(const TensorPtr& a, float p, common::Rng& rng,
                  bool training);

// ---- Composite helpers ----

/// Per-row inner product of two equally shaped matrices -> (N x 1).
TensorPtr RowDot(const TensorPtr& a, const TensorPtr& b);
/// Sum of squared entries -> 1x1 (== tr(AᵀA)).
TensorPtr SumSquares(const TensorPtr& a);

}  // namespace desalign::tensor

#endif  // DESALIGN_TENSOR_OPS_H_
