#include "serve/row_source.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "nn/checkpoint.h"

namespace desalign::serve {

bool SnapshotRowSource::Row(int64_t i, float* out) const {
  if (i < 0 || i >= snapshot_.size()) return false;
  const int64_t d = snapshot_.dim();
  const float* row = snapshot_.RowAsFloat(i, out);
  if (row != out) std::memcpy(out, row, static_cast<size_t>(d) * sizeof(float));
  return true;
}

common::Result<CheckpointRowSource> CheckpointRowSource::Open(
    const std::string& path) {
  DESALIGN_ASSIGN_OR_RETURN(const nn::FirstRecord first,
                            nn::LocateFirstRecord(path));
  if (first.dtype != nn::TensorDtype::kFloat32) {
    return common::Status::InvalidArgument(
        "checkpoint " + path +
        " tensor 0 is not fp32; quantized records hold no full-precision "
        "rows");
  }
  if (first.rows <= 0 || first.cols <= 0) {
    return common::Status::IoError("checkpoint " + path +
                                   " tensor 0 is empty");
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return common::Status::IoError("cannot reopen checkpoint " + path);
  }
  return CheckpointRowSource(fd, first.rows, first.cols,
                             first.payload_offset);
}

CheckpointRowSource::CheckpointRowSource(CheckpointRowSource&& other) noexcept
    : fd_(other.fd_),
      rows_(other.rows_),
      cols_(other.cols_),
      payload_offset_(other.payload_offset_) {
  other.fd_ = -1;
}

CheckpointRowSource& CheckpointRowSource::operator=(
    CheckpointRowSource&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    rows_ = other.rows_;
    cols_ = other.cols_;
    payload_offset_ = other.payload_offset_;
    other.fd_ = -1;
  }
  return *this;
}

CheckpointRowSource::~CheckpointRowSource() {
  if (fd_ >= 0) ::close(fd_);
}

bool CheckpointRowSource::Row(int64_t i, float* out) const {
  if (fd_ < 0 || i < 0 || i >= rows_) return false;
  const size_t want = static_cast<size_t>(cols_) * sizeof(float);
  size_t done = 0;
  char* dst = reinterpret_cast<char*>(out);
  const int64_t base = payload_offset_ + i * static_cast<int64_t>(want);
  while (done < want) {
    const ssize_t got = ::pread(fd_, dst + done, want - done,
                                static_cast<off_t>(base + done));
    if (got <= 0) return false;
    done += static_cast<size_t>(got);
  }
  return true;
}

}  // namespace desalign::serve
