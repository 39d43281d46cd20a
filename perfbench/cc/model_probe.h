#ifndef PERFBENCH_MODEL_PROBE_H_
#define PERFBENCH_MODEL_PROBE_H_

#include <vector>

#include "core/desalign.h"
#include "kg/mmkg.h"
#include "probes.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// DESAlign with read access to its layers, so the traced run can time
/// each module's public entry point (GatEncoder::Forward,
/// CrossModalAttention::Forward, ContrastiveAlignmentLoss, MmslPenalty,
/// SemanticPropagation::Run, ...) on exactly the tensors the workload
/// trains and decodes. It adds no behaviour: every timed call is a call
/// into the library. Probes run after the workload's outputs have been
/// digested and checked, because some of them (the optimizer step)
/// change the weights.
class ProbeModel : public desalign::core::DesalignModel {
 public:
  using desalign::core::DesalignModel::DesalignModel;

  /// GEMMs one training epoch issues, with their shapes.
  std::vector<GemmShape> TrainGemmShapes(
      const desalign::kg::AlignedKgPair& data) const;
  /// The decode's similarity GEMM: (test x D) · (D x test).
  GemmShape DecodeGemmShape(const desalign::kg::AlignedKgPair& data) const;

  /// graph, nn, align (loss) and core (mmsl) probes at training shapes.
  void ProbeTrainLayers(const desalign::kg::AlignedKgPair& data,
                        SpanRecorder& recorder, WorkloadResult& result);

  /// align (cosine, csls, rank metrics) and core (propagation) probes at
  /// decode shapes. The graph layer is probed once, at training shapes.
  void ProbeDecodeLayers(const desalign::kg::AlignedKgPair& data,
                         SpanRecorder& recorder, WorkloadResult& result);

  /// Parameter tensors, in the order Fit trains them.
  std::vector<desalign::tensor::TensorPtr> TrainableParameters() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_PROBE_H_
