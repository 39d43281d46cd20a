#ifndef DESALIGN_TENSOR_KERNELS_SOLVER_FIND_DB_H_
#define DESALIGN_TENSOR_KERNELS_SOLVER_FIND_DB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

// The persisted tuning cache ("find-db", after MIOpen's): winners chosen by
// `desalign tune`, keyed by (op, shape-bucket). Binary format v1:
//
//   offset size  field
//   0      4     magic "DSFD"
//   4      4     u32 version (= 1)
//   8      8     i64 tuned_at_unix (provenance stamp only, never selected on)
//   16     4     u32 record count
//   20     …     records, each:
//                  u8 op, u8 bm, u8 bk, u8 bn       (ProblemKey)
//                  u16 id_len, id bytes             (winning solver id)
//                  f64 best_ns_per_elem             (winner's tuned timing)
//                  f64 default_ns_per_elem          (static choice's timing)
//   end-4  4     u32 CRC32 over every preceding byte
//
// Integers and doubles are host-endian (the cache describes *this*
// machine; it is not a portable artifact). Any structural defect —
// truncation, bad magic, version skew, checksum mismatch, trailing bytes —
// makes Load return an error; the registry then runs on static choices.

namespace desalign::tensor::kernels::solver {

struct GemmProblem;  // solver.h

/// Cache key: op plus ceil-log2 buckets of each extent. ISA and thread
/// count are deliberately excluded — the find-db answers "which solver for
/// this shape class", and every solver is bit-identical and carries its own
/// scalar path, so one answer serves every environment. That exclusion is
/// what makes cache replay deterministic across threads × ISA (asserted by
/// the determinism suite).
struct ProblemKey {
  uint8_t op = 0;
  uint8_t bm = 0;
  uint8_t bk = 0;
  uint8_t bn = 0;

  /// Ceil-log2 bucket: 0 for extents <= 1, else bit_width(extent - 1)
  /// (256 -> 8, 257..512 -> 9), clamped to 63.
  static uint8_t Bucket(int64_t extent);

  static ProblemKey FromProblem(const GemmProblem& p);

  friend bool operator==(const ProblemKey& a, const ProblemKey& b) {
    return a.op == b.op && a.bm == b.bm && a.bk == b.bk && a.bn == b.bn;
  }
  friend bool operator<(const ProblemKey& a, const ProblemKey& b);
};

struct FindDbRecord {
  ProblemKey key;
  std::string solver_id;
  double best_ns_per_elem = 0.0;
  double default_ns_per_elem = 0.0;
};

struct FindDb {
  static constexpr uint32_t kVersion = 1;

  int64_t tuned_at_unix = 0;
  /// Kept sorted by key (Upsert maintains the order, Deserialize verifies
  /// nothing beyond bounds — duplicate keys keep the last write).
  std::vector<FindDbRecord> records;

  const FindDbRecord* Find(const ProblemKey& key) const;
  void Upsert(FindDbRecord record);
  void Clear() { records.clear(); }

  std::string Serialize() const;
  static common::Result<FindDb> Deserialize(const std::string& bytes);

  /// Serialize + AtomicWriteFile, creating parent directories as needed.
  common::Status Save(const std::string& path) const;
  /// ReadFileToString + Deserialize. The registry checks existence before
  /// calling this, so "not tuned yet" never reaches the error path.
  static common::Result<FindDb> Load(const std::string& path);
};

/// Where the cache lives: $DESALIGN_TUNE_CACHE if set, else
/// $XDG_CACHE_HOME/desalign/gemm_find_db.bin, else
/// $HOME/.cache/desalign/gemm_find_db.bin, else a cwd-relative fallback.
/// `desalign tune --cache=PATH` overrides all of these when writing.
std::string FindDbPath();

}  // namespace desalign::tensor::kernels::solver

#endif  // DESALIGN_TENSOR_KERNELS_SOLVER_FIND_DB_H_
