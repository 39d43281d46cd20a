#include "nn/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/strings.h"

namespace desalign::nn {

namespace {

using common::Crc32;
using common::Result;
using common::Status;

// v3 layout, the one that is written (docs/ROBUSTNESS.md):
//   kMagicV3
//   -- footer-checksummed region --
//   u32 version(3) | i64 epoch | u32 flags | i64 tensor_count
//   per tensor: u8 dtype | i64 rows | i64 cols |
//     dtype 0 (fp32): f32[rows*cols] | u32 crc
//     dtype 1 (int8): i64 scale_count | f32 scales[scale_count] | u32 crc
//                     | i8 codes[rows*cols] | u32 crc
//     dtype 2 (bf16): u16[rows*cols] | u32 crc
//   [flags&kHasOptimizer] i64 step; per tensor: f32[] m, u32 crc,
//                                               f32[] v, u32 crc
//   [flags&kHasRng]       i64 len | bytes | u32 crc
//   [flags&kHasTrain]     f32 best_loss | i32 stall | f32 lr_scale
//   -- region ends --
//   u32 footer_crc(region) | kEndMarker
// scale_count is stored explicitly (it must equal rows) so a file whose
// scale array disagrees with its shape is rejected as corrupt instead of
// silently misframing every record after it. flags must be 0 when any
// record is quantized.
//
// v2 (read only) is the same with kMagicV2, version 2 and no dtype byte:
// every record is fp32.
constexpr char kMagicV3[] = "DESALIGNCKPT3\n";
constexpr char kMagicV2[] = "DESALIGNCKPT2\n";
constexpr size_t kMagicLen = sizeof(kMagicV3) - 1;
static_assert(sizeof(kMagicV2) == sizeof(kMagicV3),
              "v2/v3 magics must share a length");
constexpr char kEndMarker[] = "DCKPTEND";
constexpr size_t kEndMarkerLen = sizeof(kEndMarker) - 1;
constexpr uint32_t kVersionV2 = 2;
constexpr uint32_t kVersionV3 = 3;
constexpr uint32_t kHasOptimizer = 1;
constexpr uint32_t kHasRng = 2;
constexpr uint32_t kHasTrain = 4;
constexpr uint32_t kKnownFlags = kHasOptimizer | kHasRng | kHasTrain;

template <typename T>
void Append(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void AppendArray(std::string* out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(T));
  Append<uint32_t>(out, Crc32(values.data(), values.size() * sizeof(T)));
}

/// Bounds-checked forward-only reader over the in-memory file. Every Read
/// validates the remaining length first, so a truncated or lying header can
/// never cause an out-of-bounds read or an unbounded allocation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads `count` elements plus their trailing CRC; false on truncation,
  /// CRC mismatch sets `*crc_ok` false (payload is still consumed).
  template <typename T>
  bool ReadArray(size_t count, std::vector<T>* out, bool* crc_ok) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) return false;
    const size_t payload = count * sizeof(T);
    if (remaining() < payload + sizeof(uint32_t)) return false;
    out->resize(count);
    if (payload > 0) std::memcpy(out->data(), bytes_.data() + pos_, payload);
    const uint32_t actual = Crc32(bytes_.data() + pos_, payload);
    pos_ += payload;
    uint32_t stored = 0;
    Read(&stored);
    *crc_ok = stored == actual;
    return true;
  }

  bool ReadString(size_t count, std::string* out) {
    if (remaining() < count) return false;
    out->assign(bytes_.data() + pos_, count);
    pos_ += count;
    return true;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& path, const std::string& detail) {
  return Status::IoError("corrupt checkpoint " + path + ": " + detail);
}

std::string TensorName(size_t i) { return "tensor " + std::to_string(i); }

Status CheckPayloadSize(const QuantTensor& q, size_t i) {
  const size_t elems = static_cast<size_t>(q.rows * q.cols);
  bool ok = q.rows >= 0 && q.cols >= 0;
  switch (q.dtype) {
    case TensorDtype::kFloat32:
      ok = ok && q.f32.size() == elems;
      break;
    case TensorDtype::kInt8:
      ok = ok && q.codes.size() == elems &&
           q.scales.size() == static_cast<size_t>(q.rows);
      break;
    case TensorDtype::kBf16:
      ok = ok && q.bf16.size() == elems;
      break;
    default:
      return Status::InvalidArgument(TensorName(i) +
                                     ": unknown dtype");
  }
  if (!ok) {
    return Status::InvalidArgument(TensorName(i) +
                                   ": " + DtypeName(q.dtype) +
                                   " payload size mismatch");
  }
  return Status::Ok();
}

/// The header fields shared by v2 and v3.
struct Header {
  bool v3 = true;
  int64_t epoch = 0;
  uint32_t flags = 0;
  int64_t tensor_count = 0;
};

/// Checks magic, end marker and footer CRC of `bytes`, then reads the
/// header. On success `*reader` is positioned at the first record.
Status OpenBody(const std::string& path, std::string_view bytes,
                Header* header, ByteReader* reader) {
  if (bytes.size() < kMagicLen + sizeof(uint32_t) + kEndMarkerLen) {
    return Status::IoError(path + " is not a DESAlign checkpoint");
  }
  header->v3 = std::memcmp(bytes.data(), kMagicV3, kMagicLen) == 0;
  if (!header->v3 && std::memcmp(bytes.data(), kMagicV2, kMagicLen) != 0) {
    return Status::IoError(path + " is not a DESAlign checkpoint");
  }
  if (std::memcmp(bytes.data() + bytes.size() - kEndMarkerLen, kEndMarker,
                  kEndMarkerLen) != 0) {
    return Corrupt(path, "missing end marker (torn write?)");
  }
  const size_t body_len =
      bytes.size() - kMagicLen - sizeof(uint32_t) - kEndMarkerLen;
  uint32_t footer_crc = 0;
  std::memcpy(&footer_crc, bytes.data() + kMagicLen + body_len,
              sizeof(footer_crc));
  if (Crc32(bytes.data() + kMagicLen, body_len) != footer_crc) {
    return Corrupt(path, "footer checksum mismatch");
  }
  *reader = ByteReader(bytes.substr(kMagicLen, body_len));
  uint32_t version = 0;
  if (!reader->Read(&version) || !reader->Read(&header->epoch) ||
      !reader->Read(&header->flags) || !reader->Read(&header->tensor_count)) {
    return Corrupt(path, "truncated header");
  }
  if (version != (header->v3 ? kVersionV3 : kVersionV2)) {
    return Status::IoError(path + " has unsupported checkpoint version " +
                           std::to_string(version));
  }
  if ((header->flags & ~kKnownFlags) != 0) {
    return Corrupt(path, "unknown flags " + std::to_string(header->flags));
  }
  if (header->tensor_count < 0 || header->epoch < 0) {
    return Corrupt(path, "negative header field");
  }
  return Status::Ok();
}

/// Reads record `t`'s dtype (v3 only; v2 records are fp32) and shape, and
/// checks that its payload can fit in what is left of the body.
Status ReadRecordHeader(const std::string& path, bool v3, size_t t,
                        ByteReader& reader, QuantTensor* q) {
  uint8_t dtype_tag = 0;
  if ((v3 && !reader.Read(&dtype_tag)) || !reader.Read(&q->rows) ||
      !reader.Read(&q->cols)) {
    return Corrupt(path, "truncated tensor header");
  }
  if (dtype_tag > static_cast<uint8_t>(TensorDtype::kBf16)) {
    return Corrupt(path, TensorName(t) + " has unknown dtype id " +
                             std::to_string(dtype_tag));
  }
  q->dtype = static_cast<TensorDtype>(dtype_tag);
  const size_t elem_bytes = DtypeBytes(q->dtype);
  if (q->rows < 0 || q->cols < 0 ||
      (q->cols > 0 &&
       q->rows > static_cast<int64_t>(reader.remaining() / elem_bytes) /
                     q->cols)) {
    return Corrupt(path, "implausible tensor shape " +
                             std::to_string(q->rows) + "x" +
                             std::to_string(q->cols));
  }
  return Status::Ok();
}

/// Reads record `t`'s payload for its dtype and checks each array's CRC.
Status ReadRecordPayload(const std::string& path, size_t t,
                         ByteReader& reader, QuantTensor* q) {
  const size_t elems = static_cast<size_t>(q->rows * q->cols);
  bool crc_ok = true;
  bool read = false;
  switch (q->dtype) {
    case TensorDtype::kFloat32:
      read = reader.ReadArray(elems, &q->f32, &crc_ok);
      break;
    case TensorDtype::kInt8: {
      int64_t scale_count = 0;
      if (!reader.Read(&scale_count)) {
        return Corrupt(path, "truncated scale count");
      }
      if (scale_count != q->rows) {
        return Corrupt(path, TensorName(t) + " scale count " +
                                 std::to_string(scale_count) +
                                 " does not match rows " +
                                 std::to_string(q->rows));
      }
      if (!reader.ReadArray(static_cast<size_t>(scale_count), &q->scales,
                            &crc_ok)) {
        return Corrupt(path, "truncated scale payload");
      }
      if (!crc_ok) {
        return Corrupt(path, TensorName(t) + " scale checksum mismatch");
      }
      read = reader.ReadArray(elems, &q->codes, &crc_ok);
      break;
    }
    case TensorDtype::kBf16:
      read = reader.ReadArray(elems, &q->bf16, &crc_ok);
      break;
  }
  if (!read) return Corrupt(path, "truncated tensor payload");
  if (!crc_ok) return Corrupt(path, TensorName(t) + " checksum mismatch");
  return Status::Ok();
}

}  // namespace

Status SaveCheckpoint(const TrainingCheckpoint& ckpt,
                      const std::string& path) {
  size_t payload_bytes = ckpt.rng_state.size();
  bool quantized = false;
  for (size_t i = 0; i < ckpt.tensors.size(); ++i) {
    DESALIGN_RETURN_NOT_OK(CheckPayloadSize(ckpt.tensors[i], i));
    quantized |= ckpt.tensors[i].dtype != TensorDtype::kFloat32;
    payload_bytes += QuantTensorBytes(ckpt.tensors[i]);
  }
  if (quantized &&
      (ckpt.has_optimizer || ckpt.has_rng || ckpt.has_train_state)) {
    return Status::InvalidArgument(
        "quantized checkpoints are params-only snapshots; optimizer / rng / "
        "train state cannot be attached");
  }
  if (ckpt.has_optimizer) {
    if (ckpt.opt_m.size() != ckpt.tensors.size() ||
        ckpt.opt_v.size() != ckpt.tensors.size()) {
      return Status::InvalidArgument(
          "optimizer moment count does not match tensor count");
    }
    for (size_t i = 0; i < ckpt.tensors.size(); ++i) {
      if (ckpt.opt_m[i].size() != ckpt.tensors[i].f32.size() ||
          ckpt.opt_v[i].size() != ckpt.tensors[i].f32.size()) {
        return Status::InvalidArgument(
            "optimizer moment size does not match " + TensorName(i));
      }
      payload_bytes += 2 * ckpt.opt_m[i].size() * sizeof(float);
    }
  }

  // The file is built in one buffer (payloads plus a generous allowance
  // for headers and CRCs); the footer CRC covers everything between the
  // magic and the footer.
  std::string file;
  file.reserve(kMagicLen + payload_bytes + 64 * (ckpt.tensors.size() + 1) +
               kEndMarkerLen);
  file.append(kMagicV3, kMagicLen);
  Append<uint32_t>(&file, kVersionV3);
  Append<int64_t>(&file, ckpt.epoch);
  const uint32_t flags = (ckpt.has_optimizer ? kHasOptimizer : 0) |
                         (ckpt.has_rng ? kHasRng : 0) |
                         (ckpt.has_train_state ? kHasTrain : 0);
  Append<uint32_t>(&file, flags);
  Append<int64_t>(&file, static_cast<int64_t>(ckpt.tensors.size()));
  for (const QuantTensor& q : ckpt.tensors) {
    Append<uint8_t>(&file, static_cast<uint8_t>(q.dtype));
    Append<int64_t>(&file, q.rows);
    Append<int64_t>(&file, q.cols);
    switch (q.dtype) {
      case TensorDtype::kFloat32:
        AppendArray(&file, q.f32);
        break;
      case TensorDtype::kInt8:
        Append<int64_t>(&file, static_cast<int64_t>(q.scales.size()));
        AppendArray(&file, q.scales);
        AppendArray(&file, q.codes);
        break;
      case TensorDtype::kBf16:
        AppendArray(&file, q.bf16);
        break;
    }
  }
  if (ckpt.has_optimizer) {
    Append<int64_t>(&file, ckpt.opt_step);
    for (size_t i = 0; i < ckpt.tensors.size(); ++i) {
      AppendArray(&file, ckpt.opt_m[i]);
      AppendArray(&file, ckpt.opt_v[i]);
    }
  }
  if (ckpt.has_rng) {
    Append<int64_t>(&file, static_cast<int64_t>(ckpt.rng_state.size()));
    file.append(ckpt.rng_state);
    Append<uint32_t>(&file,
                     Crc32(ckpt.rng_state.data(), ckpt.rng_state.size()));
  }
  if (ckpt.has_train_state) {
    Append<float>(&file, ckpt.best_loss);
    Append<int32_t>(&file, ckpt.stall);
    Append<float>(&file, ckpt.lr_scale);
  }
  Append<uint32_t>(&file,
                   Crc32(file.data() + kMagicLen, file.size() - kMagicLen));
  file.append(kEndMarker, kEndMarkerLen);
  return common::AtomicWriteFile(path, file, "ckpt.write");
}

Result<TrainingCheckpoint> LoadCheckpoint(const std::string& path) {
  std::string bytes;
  DESALIGN_RETURN_NOT_OK(
      common::ReadFileToString(path, &bytes, "ckpt.read"));
  Header header;
  ByteReader reader{std::string_view()};
  DESALIGN_RETURN_NOT_OK(OpenBody(path, bytes, &header, &reader));

  TrainingCheckpoint ckpt;
  ckpt.epoch = header.epoch;
  bool quantized = false;
  const auto tensor_count = static_cast<size_t>(header.tensor_count);
  for (size_t t = 0; t < tensor_count; ++t) {
    QuantTensor q;
    DESALIGN_RETURN_NOT_OK(ReadRecordHeader(path, header.v3, t, reader, &q));
    DESALIGN_RETURN_NOT_OK(ReadRecordPayload(path, t, reader, &q));
    quantized |= q.dtype != TensorDtype::kFloat32;
    ckpt.tensors.push_back(std::move(q));
  }
  if (quantized && header.flags != 0) {
    return Corrupt(path, "nonzero flags " + std::to_string(header.flags) +
                             " alongside a quantized record");
  }
  bool crc_ok = true;
  if (header.flags & kHasOptimizer) {
    ckpt.has_optimizer = true;
    if (!reader.Read(&ckpt.opt_step)) {
      return Corrupt(path, "truncated optimizer step");
    }
    for (size_t t = 0; t < tensor_count; ++t) {
      const size_t n = ckpt.tensors[t].f32.size();
      std::vector<float> m;
      std::vector<float> v;
      if (!reader.ReadArray(n, &m, &crc_ok) || !crc_ok) {
        return Corrupt(path, "bad optimizer m for " + TensorName(t));
      }
      if (!reader.ReadArray(n, &v, &crc_ok) || !crc_ok) {
        return Corrupt(path, "bad optimizer v for " + TensorName(t));
      }
      ckpt.opt_m.push_back(std::move(m));
      ckpt.opt_v.push_back(std::move(v));
    }
  }
  if (header.flags & kHasRng) {
    ckpt.has_rng = true;
    int64_t len = 0;
    if (!reader.Read(&len) || len < 0 ||
        static_cast<size_t>(len) > reader.remaining() ||
        !reader.ReadString(static_cast<size_t>(len), &ckpt.rng_state)) {
      return Corrupt(path, "truncated rng state");
    }
    uint32_t stored = 0;
    if (!reader.Read(&stored) ||
        stored != Crc32(ckpt.rng_state.data(), ckpt.rng_state.size())) {
      return Corrupt(path, "rng state checksum mismatch");
    }
  }
  if (header.flags & kHasTrain) {
    ckpt.has_train_state = true;
    if (!reader.Read(&ckpt.best_loss) || !reader.Read(&ckpt.stall) ||
        !reader.Read(&ckpt.lr_scale)) {
      return Corrupt(path, "truncated train state");
    }
  }
  if (reader.remaining() != 0) {
    return Corrupt(path, std::to_string(reader.remaining()) +
                             " unexpected trailing bytes");
  }
  return ckpt;
}

Result<FirstRecord> LocateFirstRecord(const std::string& path) {
  std::string bytes;
  DESALIGN_RETURN_NOT_OK(
      common::ReadFileToString(path, &bytes, "ckpt.read"));
  Header header;
  ByteReader reader{std::string_view()};
  DESALIGN_RETURN_NOT_OK(OpenBody(path, bytes, &header, &reader));
  if (header.tensor_count < 1) {
    return Status::IoError("checkpoint " + path + " holds no tensors");
  }
  QuantTensor q;
  DESALIGN_RETURN_NOT_OK(ReadRecordHeader(path, header.v3, 0, reader, &q));
  FirstRecord first;
  first.dtype = q.dtype;
  first.rows = q.rows;
  first.cols = q.cols;
  first.payload_offset = static_cast<int64_t>(kMagicLen + reader.pos());
  return first;
}

std::vector<QuantTensor> ParameterRecords(
    const std::vector<tensor::TensorPtr>& params) {
  std::vector<QuantTensor> records(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    records[i].rows = params[i]->rows();
    records[i].cols = params[i]->cols();
    records[i].f32 = params[i]->data();
  }
  return records;
}

Status RestoreParameters(const std::vector<QuantTensor>& records,
                         const std::vector<tensor::TensorPtr>& params) {
  if (records.size() != params.size()) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(records.size()) +
        " tensors, model has " + std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const QuantTensor& q = records[i];
    DESALIGN_RETURN_NOT_OK(CheckPayloadSize(q, i));
    if (q.dtype != TensorDtype::kFloat32) {
      return Status::InvalidArgument(
          "checkpoint " + TensorName(i) + " is " +
          DtypeName(q.dtype) + "; model parameters are fp32");
    }
    if (q.rows != params[i]->rows() || q.cols != params[i]->cols()) {
      return Status::InvalidArgument(
          "checkpoint " + TensorName(i) + " shape " +
          std::to_string(q.rows) + "x" + std::to_string(q.cols) +
          " does not match model " + std::to_string(params[i]->rows()) +
          "x" + std::to_string(params[i]->cols()));
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->data() = records[i].f32;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// CheckpointManager

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "desalign.ckpt.manifest.v1";
constexpr char kFilePrefix[] = "ckpt_";
constexpr char kFileSuffix[] = ".dckpt";

std::string CheckpointFileName(int64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08lld%s", kFilePrefix,
                static_cast<long long>(epoch), kFileSuffix);
  return buf;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  options_.keep_last = std::max(options_.keep_last, 1);
}

std::string CheckpointManager::PathOf(const std::string& name) const {
  return dir_ + "/" + name;
}

Status CheckpointManager::Init() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " + dir_ +
                           ": " + ec.message());
  }
  files_.clear();
  // Prefer the manifest; fall back to a directory scan so a crashed or
  // manually pruned directory still resumes.
  std::ifstream manifest(PathOf(kManifestName));
  std::string line;
  if (manifest && std::getline(manifest, line) && line == kManifestHeader) {
    while (std::getline(manifest, line)) {
      const std::string name(common::Trim(line));
      if (!name.empty() && std::filesystem::exists(PathOf(name))) {
        files_.push_back(name);
      }
    }
    return Status::Ok();
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (common::StartsWith(name, kFilePrefix) &&
        name.size() > std::strlen(kFileSuffix) &&
        name.compare(name.size() - std::strlen(kFileSuffix),
                     std::strlen(kFileSuffix), kFileSuffix) == 0) {
      files_.push_back(name);
    }
  }
  std::sort(files_.begin(), files_.end());  // zero-padded epoch => oldest first
  return Status::Ok();
}

Status CheckpointManager::WriteManifest() const {
  std::string body(kManifestHeader);
  body.push_back('\n');
  for (const auto& name : files_) {
    body += name;
    body.push_back('\n');
  }
  return common::AtomicWriteFile(PathOf(kManifestName), body,
                                 "manifest.write");
}

Status CheckpointManager::Write(const TrainingCheckpoint& ckpt) {
  const std::string name = CheckpointFileName(ckpt.epoch);
  DESALIGN_RETURN_NOT_OK(SaveCheckpoint(ckpt, PathOf(name)));
  if (std::find(files_.begin(), files_.end(), name) == files_.end()) {
    files_.push_back(name);
  }
  // Prune only after the new file is durable and listed.
  DESALIGN_RETURN_NOT_OK(WriteManifest());
  while (static_cast<int>(files_.size()) > options_.keep_last) {
    std::error_code ec;
    std::filesystem::remove(PathOf(files_.front()), ec);
    files_.erase(files_.begin());
  }
  return WriteManifest();
}

Result<TrainingCheckpoint> CheckpointManager::LoadLatestValid(
    std::string* loaded_path) const {
  for (auto it = files_.rbegin(); it != files_.rend(); ++it) {
    const std::string path = PathOf(*it);
    auto loaded = LoadCheckpoint(path);
    if (loaded.ok()) {
      if (loaded_path != nullptr) *loaded_path = path;
      return loaded;
    }
    DESALIGN_LOG(Warning) << "skipping unloadable checkpoint: "
                          << loaded.status().ToString();
  }
  return Status::NotFound("no valid checkpoint in " + dir_);
}

}  // namespace desalign::nn
