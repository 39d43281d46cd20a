#include "align/loss.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace desalign::align {

namespace ops = desalign::tensor;

TensorPtr ContrastiveAlignmentLoss(const TensorPtr& z1, const TensorPtr& z2,
                                   float tau,
                                   const TensorPtr& pair_weights) {
  DESALIGN_CHECK_GT(tau, 0.0f);
  // p(e1_i -> e2_i) and p(e2_i -> e1_i) are the rows and the columns of one
  // logit matrix; the fused op reads it both ways.
  return ops::BidirectionalInfoNce(ops::RowL2Normalize(z1),
                                   ops::RowL2Normalize(z2), tau,
                                   pair_weights);
}

TensorPtr MarginAlignmentLoss(const TensorPtr& z1, const TensorPtr& z2,
                              const TensorPtr& z2_neg, float margin) {
  DESALIGN_CHECK_EQ(z1->rows(), z2->rows());
  DESALIGN_CHECK_EQ(z1->rows(), z2_neg->rows());
  auto z1n = ops::RowL2Normalize(z1);
  auto z2n = ops::RowL2Normalize(z2);
  auto znn = ops::RowL2Normalize(z2_neg);
  auto d_pos = ops::RowSum(ops::Square(ops::Sub(z1n, z2n)));
  auto d_neg = ops::RowSum(ops::Square(ops::Sub(z1n, znn)));
  return ops::Mean(
      ops::Relu(ops::AddScalar(ops::Sub(d_pos, d_neg), margin)));
}

}  // namespace desalign::align
