#include "tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/thread_pool.h"

namespace desalign::tensor {

CsrMatrixPtr CsrMatrix::FromTriplets(int64_t rows, int64_t cols,
                                     std::vector<Triplet> triplets) {
  DESALIGN_CHECK_GT(rows, 0);
  DESALIGN_CHECK_GT(cols, 0);
  auto m = std::shared_ptr<CsrMatrix>(new CsrMatrix(rows, cols));
  // One pass validates bounds and counts entries per row; a second pass
  // buckets triplets by row (counting sort on the row index). Only the
  // within-row column sort remains comparison-based, so the build is
  // O(nnz + rows + sum_r nnz_r log nnz_r) instead of a global
  // O(nnz log nnz) sort. stable_sort keeps duplicate (row, col) entries in
  // insertion order, making the dedup summation order deterministic (the
  // previous global std::sort left it unspecified).
  m->row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  for (const auto& t : triplets) {
    DESALIGN_CHECK(t.row >= 0 && t.row < rows);
    DESALIGN_CHECK(t.col >= 0 && t.col < cols);
    ++m->row_ptr_[static_cast<size_t>(t.row) + 1];
  }
  for (int64_t r = 0; r < rows; ++r) m->row_ptr_[r + 1] += m->row_ptr_[r];

  struct Entry {
    int64_t col;
    float value;
  };
  std::vector<Entry> entries(triplets.size());
  std::vector<int64_t> cursor(m->row_ptr_.begin(), m->row_ptr_.end() - 1);
  for (const auto& t : triplets) {
    entries[static_cast<size_t>(cursor[t.row]++)] = {t.col, t.value};
  }

  m->col_idx_.reserve(triplets.size());
  m->values_.reserve(triplets.size());
  std::vector<int64_t> dedup_counts(static_cast<size_t>(rows), 0);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t begin = m->row_ptr_[r];
    const int64_t end = m->row_ptr_[r + 1];
    std::stable_sort(entries.begin() + begin, entries.begin() + end,
                     [](const Entry& a, const Entry& b) {
                       return a.col < b.col;
                     });
    for (int64_t i = begin; i < end; ++i) {
      if (i > begin && entries[i].col == entries[i - 1].col &&
          !m->col_idx_.empty() && m->col_idx_.back() == entries[i].col) {
        m->values_.back() += entries[i].value;
      } else {
        m->col_idx_.push_back(entries[i].col);
        m->values_.push_back(entries[i].value);
        ++dedup_counts[r];
      }
    }
  }
  m->row_ptr_[0] = 0;
  for (int64_t r = 0; r < rows; ++r) {
    m->row_ptr_[r + 1] = m->row_ptr_[r] + dedup_counts[r];
  }
  return m;
}

CsrMatrixPtr CsrMatrix::Identity(int64_t n) {
  std::vector<Triplet> t(n);
  for (int64_t i = 0; i < n; ++i) t[i] = {i, i, 1.0f};
  return FromTriplets(n, n, std::move(t));
}

void CsrMatrix::Multiply(const float* x, int64_t k, float* y) const {
  // y may be null when rows_ * k == 0, and memset's pointer must not be.
  if (rows_ * k > 0) {
    std::memset(y, 0, sizeof(float) * static_cast<size_t>(rows_ * k));
  }
  // Row-partitioned: each thread owns disjoint output rows, so the
  // accumulation order (and hence the float result) is fixed.
  common::ThreadPool::Global().ParallelFor(
      0, rows_,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          float* yr = y + r * k;
          for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
            const float v = values_[p];
            const float* xc = x + col_idx_[p] * k;
            for (int64_t j = 0; j < k; ++j) yr[j] += v * xc[j];
          }
        }
      },
      /*grain=*/std::max<int64_t>(64, 16384 / std::max<int64_t>(1, k)));
}

CsrMatrixPtr CsrMatrix::Transpose() const {
  // Counting sort on the column index: O(nnz + cols) with no comparison
  // sort and no triplet round-trip. Scanning rows in ascending order means
  // each transposed row receives its entries with ascending column index,
  // so the output is already in canonical CSR form; values are moved
  // bit-unchanged.
  auto m = std::shared_ptr<CsrMatrix>(new CsrMatrix(cols_, rows_));
  m->row_ptr_.assign(static_cast<size_t>(cols_) + 1, 0);
  for (int64_t c : col_idx_) ++m->row_ptr_[static_cast<size_t>(c) + 1];
  for (int64_t c = 0; c < cols_; ++c) m->row_ptr_[c + 1] += m->row_ptr_[c];
  m->col_idx_.resize(values_.size());
  m->values_.resize(values_.size());
  std::vector<int64_t> cursor(m->row_ptr_.begin(), m->row_ptr_.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const int64_t slot = cursor[col_idx_[p]]++;
      m->col_idx_[slot] = r;
      m->values_[slot] = values_[p];
    }
  }
  return m;
}

CsrMatrixPtr CsrMatrix::Add(const CsrMatrix& other, float alpha,
                            float beta) const {
  DESALIGN_CHECK_EQ(rows_, other.rows_);
  DESALIGN_CHECK_EQ(cols_, other.cols_);
  std::vector<Triplet> t;
  t.reserve(values_.size() + other.values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      t.push_back({r, col_idx_[p], alpha * values_[p]});
    }
    for (int64_t p = other.row_ptr_[r]; p < other.row_ptr_[r + 1]; ++p) {
      t.push_back({r, other.col_idx_[p], beta * other.values_[p]});
    }
  }
  return FromTriplets(rows_, cols_, std::move(t));
}

float CsrMatrix::At(int64_t row, int64_t col) const {
  DESALIGN_CHECK(row >= 0 && row < rows_);
  DESALIGN_CHECK(col >= 0 && col < cols_);
  auto begin = col_idx_.begin() + row_ptr_[row];
  auto end = col_idx_.begin() + row_ptr_[row + 1];
  auto it = std::lower_bound(begin, end, col);
  if (it != end && *it == col) {
    return values_[static_cast<size_t>(it - col_idx_.begin())];
  }
  return 0.0f;
}

std::vector<float> CsrMatrix::RowSums() const {
  std::vector<float> sums(rows_, 0.0f);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      sums[r] += values_[p];
    }
  }
  return sums;
}

CsrMatrixPtr CsrMatrix::SubMatrix(const std::vector<bool>& row_mask,
                                  const std::vector<bool>& col_mask) const {
  DESALIGN_CHECK_EQ(static_cast<int64_t>(row_mask.size()), rows_);
  DESALIGN_CHECK_EQ(static_cast<int64_t>(col_mask.size()), cols_);
  std::vector<int64_t> row_map(rows_, -1);
  std::vector<int64_t> col_map(cols_, -1);
  int64_t new_rows = 0;
  int64_t new_cols = 0;
  for (int64_t r = 0; r < rows_; ++r) {
    if (row_mask[r]) row_map[r] = new_rows++;
  }
  for (int64_t c = 0; c < cols_; ++c) {
    if (col_mask[c]) col_map[c] = new_cols++;
  }
  DESALIGN_CHECK_MSG(new_rows > 0 && new_cols > 0,
                     "SubMatrix selection is empty");
  std::vector<Triplet> t;
  for (int64_t r = 0; r < rows_; ++r) {
    if (row_map[r] < 0) continue;
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const int64_t c = col_idx_[p];
      if (col_map[c] < 0) continue;
      t.push_back({row_map[r], col_map[c], values_[p]});
    }
  }
  return FromTriplets(new_rows, new_cols, std::move(t));
}

bool CsrMatrix::IsSymmetric(float tol) const {
  if (rows_ != cols_) return false;
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      if (std::fabs(values_[p] - At(col_idx_[p], r)) > tol) return false;
    }
  }
  return true;
}

}  // namespace desalign::tensor
