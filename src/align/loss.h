#ifndef DESALIGN_ALIGN_LOSS_H_
#define DESALIGN_ALIGN_LOSS_H_

#include "tensor/tensor.h"

namespace desalign::align {

using tensor::TensorPtr;

/// Bidirectional in-batch contrastive alignment loss (paper Eq. 16–17).
/// `z1`/`z2` are the B x d embeddings of B seed pairs (row i of z1 aligns
/// with row i of z2); every other in-batch row acts as a negative.
/// `pair_weights` (optional, B x 1, treated as constants) carries the
/// min-confidence values φ_m; null means uniform weights.
/// Returns a differentiable scalar: one tensor::BidirectionalInfoNce node
/// over the l2-normalized rows, which keeps a single B x B buffer alive
/// until backward.
TensorPtr ContrastiveAlignmentLoss(const TensorPtr& z1, const TensorPtr& z2,
                                   float tau,
                                   const TensorPtr& pair_weights = nullptr);

/// Margin ranking alignment loss (used by the translation-era baselines,
/// e.g. the MMEA model family): mean(relu(margin + d(z1, z2) − d(z1,
/// z2_neg))) with squared-l2 distance d; `z2_neg` holds one negative per
/// pair (rows aligned with z1).
TensorPtr MarginAlignmentLoss(const TensorPtr& z1, const TensorPtr& z2,
                              const TensorPtr& z2_neg, float margin);

}  // namespace desalign::align

#endif  // DESALIGN_ALIGN_LOSS_H_
