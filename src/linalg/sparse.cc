#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "debug/check.h"
#include "parallel/thread_pool.h"

namespace repro::linalg {

SparseMatrix SparseMatrix::FromTriplets(
    int rows, int cols,
    const std::vector<std::tuple<int, int, float>>& triplets) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::vector<std::tuple<int, int, float>> sorted = triplets;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return std::tie(std::get<0>(a), std::get<1>(a)) <
                     std::tie(std::get<0>(b), std::get<1>(b));
            });
  m.row_ptr_.assign(rows + 1, 0);
  int prev_r = -1;
  int prev_c = -1;
  for (const auto& [r, c, v] : sorted) {
    PEEGA_CHECK_GE(r, 0);
    PEEGA_CHECK_LT(r, rows);
    PEEGA_CHECK_GE(c, 0);
    PEEGA_CHECK_LT(c, cols);
    if (r == prev_r && c == prev_c) {
      m.values_.back() += v;  // duplicate coordinate: accumulate
      continue;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    m.row_ptr_[r + 1] = static_cast<int64_t>(m.col_idx_.size());
    prev_r = r;
    prev_c = c;
  }
  // Rows with no entries inherit the running prefix.
  for (int r = 0; r < rows; ++r) {
    m.row_ptr_[r + 1] = std::max(m.row_ptr_[r + 1], m.row_ptr_[r]);
  }
  return m;
}

SparseMatrix SparseMatrix::FromCsr(int rows, int cols,
                                   std::vector<int64_t> row_ptr,
                                   std::vector<int> col_idx,
                                   std::vector<float> values) {
  PEEGA_CHECK_EQ(row_ptr.size(), static_cast<size_t>(rows) + 1);
  PEEGA_CHECK_EQ(row_ptr.front(), 0);
  PEEGA_CHECK_EQ(row_ptr.back(), static_cast<int64_t>(col_idx.size()));
  PEEGA_CHECK_EQ(col_idx.size(), values.size());
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::FromDense(const Matrix& dense, float tol) {
  SparseMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (int r = 0; r < m.rows_; ++r) {
    const float* row = dense.row(r);
    for (int c = 0; c < m.cols_; ++c) {
      if (std::fabs(row[c]) > tol) {
        m.col_idx_.push_back(c);
        m.values_.push_back(row[c]);
      }
    }
    m.row_ptr_[r + 1] = static_cast<int64_t>(m.col_idx_.size());
  }
  return m;
}

float SparseMatrix::At(int r, int c) const {
  PEEGA_CHECK_GE(r, 0);
  PEEGA_CHECK_LT(r, rows_);
  const int* begin = col_idx_.data() + row_ptr_[r];
  const int* end = col_idx_.data() + row_ptr_[r + 1];
  const int* it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0f;
  return values_[it - col_idx_.data()];
}

Matrix SparseMatrix::ToDense() const {
  Matrix dense(rows_, cols_);
  parallel::ParallelFor(0, rows_, 64, [&](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < static_cast<int>(r1); ++r) {
      float* drow = dense.row(r);
      for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        drow[col_idx_[k]] += values_[k];
      }
    }
  });
  return dense;
}

SparseMatrix SparseMatrix::Transposed() const {
  // Counting transpose: count each column's entries, prefix-sum them
  // into the transpose's row offsets, then scatter in ascending source
  // row, so each transposed row's columns ascend as stored.
  std::vector<int64_t> row_ptr(static_cast<size_t>(cols_) + 1, 0);
  for (const int c : col_idx_) ++row_ptr[static_cast<size_t>(c) + 1];
  for (int c = 0; c < cols_; ++c) row_ptr[c + 1] += row_ptr[c];
  std::vector<int64_t> next(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<int> col_idx(col_idx_.size());
  std::vector<float> values(values_.size());
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      PEEGA_DCHECK(k == row_ptr_[r] || col_idx_[k - 1] < col_idx_[k])
          << " — row " << r << " repeats or misorders a column";
      const int64_t slot = next[col_idx_[k]]++;
      col_idx[slot] = r;
      values[slot] = values_[k];
    }
  }
  return FromCsr(cols_, rows_, std::move(row_ptr), std::move(col_idx),
                 std::move(values));
}

}  // namespace repro::linalg
