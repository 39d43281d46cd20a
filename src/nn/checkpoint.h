#ifndef DESALIGN_NN_CHECKPOINT_H_
#define DESALIGN_NN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/quant.h"
#include "tensor/tensor.h"

namespace desalign::nn {

/// Everything a training run needs to continue bit-exactly: model params,
/// AdamW moments + step, the RNG engine, the epoch counter, and the loop's
/// scalar state (early-stop bookkeeping and the non-finite LR backoff).
/// The params-only subset (every `has_*` flag false) is the shape
/// serve-side embedding snapshots use.
///
/// `tensors` holds one dtype-tagged record per tensor, each payload once.
/// Training checkpoints hold fp32 records (ParameterRecords below);
/// embedding snapshots may hold int8 or bf16 records, and then carry no
/// optimizer / RNG / train state (fp32 moments for int8 params make no
/// sense).
struct TrainingCheckpoint {
  int64_t epoch = 0;  ///< last completed epoch (0-based)
  std::vector<QuantTensor> tensors;

  bool has_optimizer = false;
  int64_t opt_step = 0;
  std::vector<std::vector<float>> opt_m;  ///< first moments, per tensor
  std::vector<std::vector<float>> opt_v;  ///< second moments, per tensor

  bool has_rng = false;
  std::string rng_state;  ///< common::Rng::SerializeState()

  bool has_train_state = false;
  float best_loss = 0.0f;  ///< early-stopping best
  int32_t stall = 0;       ///< early-stopping stall counter
  float lr_scale = 1.0f;   ///< non-finite-guard LR backoff factor
};

/// Writes `ckpt` to `path` in the v3 format: magic, header, one
/// dtype-tagged record per tensor (`u8 dtype | i64 rows | i64 cols |
/// payload`, each payload array followed by its CRC32), the optional
/// optimizer / RNG / train-state sections, a footer CRC32 over everything
/// after the magic, and a trailing end marker. The file is published
/// atomically (tmp + fsync + rename via common::AtomicWriteFile, fault
/// site "ckpt.write"), so a crash mid-save never clobbers an existing
/// checkpoint. Payload sizes are checked against each record's shape, and
/// optimizer / RNG / train state is rejected when any record is
/// quantized, before anything touches disk. docs/ROBUSTNESS.md has the
/// byte layout.
common::Status SaveCheckpoint(const TrainingCheckpoint& ckpt,
                              const std::string& path);

/// Loads and fully validates a v3 checkpoint, or a v2 one (the pre-v3
/// layout, whose records have no dtype byte and are all fp32): head/tail
/// magic, footer CRC, bounds-checked section parsing, per-payload CRCs,
/// dtype ids and the int8 scale count against the record shape. Any
/// corruption — truncation, torn write, bit flip — yields a clean error
/// Status; corrupt data is never returned. Any other file, the
/// pre-checksum v1 parameter format included, is an IoError. Fault site
/// "ckpt.read".
common::Result<TrainingCheckpoint> LoadCheckpoint(const std::string& path);

/// fp32 records holding copies of `params`, in order: the tensors of a
/// model checkpoint.
std::vector<QuantTensor> ParameterRecords(
    const std::vector<tensor::TensorPtr>& params);

/// Copies the fp32 `records` into `params`, in order. The count, and every
/// record's dtype and shape, are checked before any parameter is touched,
/// so a mismatch returns InvalidArgument and leaves the model as it was.
common::Status RestoreParameters(const std::vector<QuantTensor>& records,
                                 const std::vector<tensor::TensorPtr>& params);

/// Where tensor 0 of a checkpoint file sits: its dtype, shape, and the
/// file offset of its payload (for fp32, rows * cols floats in row-major
/// order).
struct FirstRecord {
  TensorDtype dtype = TensorDtype::kFloat32;
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t payload_offset = 0;
};

/// Validates the envelope of the checkpoint at `path` (magic, version,
/// end marker, footer CRC over the whole body) and locates tensor 0
/// without copying any payload: the entry point for readers that fetch
/// rows on demand. The record header is bounds-checked, so the payload
/// lies inside the file. IoError on a missing, foreign or corrupt file or
/// one with no tensors. Fault site "ckpt.read".
common::Result<FirstRecord> LocateFirstRecord(const std::string& path);

/// Rotating last-K checkpoint directory with a manifest. Files are named
/// `ckpt_<epoch>.dckpt`; `MANIFEST` lists them oldest-first and is itself
/// written atomically (fault site "manifest.write"), so the directory is
/// always recoverable. A missing or corrupt manifest is rebuilt by
/// scanning the directory, which makes the manager safe to point at a
/// directory a crashed run left in any state.
class CheckpointManager {
 public:
  struct Options {
    int keep_last = 3;  ///< checkpoints retained after pruning (>= 1)
  };

  explicit CheckpointManager(std::string dir) : CheckpointManager(std::move(dir), Options()) {}
  CheckpointManager(std::string dir, Options options);

  /// Creates the directory if needed and loads (or rebuilds) the manifest.
  common::Status Init();

  /// Saves `ckpt` as `ckpt_<epoch>.dckpt`, updates the manifest, then
  /// prunes to the newest `keep_last` files. Pruning happens only after
  /// the new checkpoint is durable, so the retained set never shrinks
  /// below keep_last valid-at-write-time snapshots.
  common::Status Write(const TrainingCheckpoint& ckpt);

  /// Loads the newest checkpoint that passes full validation, walking
  /// backwards past corrupt ones (each rejection is logged). NotFound when
  /// no file validates. `loaded_path`, when non-null, receives the
  /// winning file's path.
  common::Result<TrainingCheckpoint> LoadLatestValid(
      std::string* loaded_path = nullptr) const;

  /// Manifest contents, oldest first (file names, not paths).
  const std::vector<std::string>& files() const { return files_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string PathOf(const std::string& name) const;
  common::Status WriteManifest() const;

  std::string dir_;
  Options options_;
  std::vector<std::string> files_;  // oldest first
};

}  // namespace desalign::nn

#endif  // DESALIGN_NN_CHECKPOINT_H_
