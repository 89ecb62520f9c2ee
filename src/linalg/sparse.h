#ifndef PEEGA_LINALG_SPARSE_H_
#define PEEGA_LINALG_SPARSE_H_

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "linalg/matrix.h"

namespace repro::linalg {

/// Compressed-sparse-row matrix of floats.
///
/// Used for graph adjacency matrices and the normalized propagation
/// matrices of GNN layers. Construction goes through coordinate triplets
/// (`FromTriplets`) or a dense matrix; once built the structure is
/// immutable (graph edits build a new `SparseMatrix`, which mirrors how
/// the attackers produce a new poisoned graph per step).
///
/// Thread-safety: a built `SparseMatrix` is effectively immutable, so
/// concurrent reads (the row-parallel SpMM kernels in
/// `linalg/ops.h` rely on this) are safe. `mutable_values()` is the one
/// escape hatch and must not be used while kernels are running.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}

  /// Builds from (row, col, value) triplets. Duplicate coordinates are
  /// summed. Triplets need not be sorted. Serial; O(nnz log nnz).
  static SparseMatrix FromTriplets(
      int rows, int cols,
      const std::vector<std::tuple<int, int, float>>& triplets);

  /// Adopts CSR arrays as given: `row_ptr` holds rows+1 nondecreasing
  /// offsets from 0 to col_idx.size() == values.size(), and each row's
  /// columns ascend (only the sizes are checked). O(1) beyond the moves.
  static SparseMatrix FromCsr(int rows, int cols,
                              std::vector<int64_t> row_ptr,
                              std::vector<int> col_idx,
                              std::vector<float> values);

  /// Converts a dense matrix, keeping entries with |v| > `tol`.
  /// Serial; O(rows · cols).
  static SparseMatrix FromDense(const Matrix& dense, float tol = 0.0f);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// CSR arrays. `row_ptr()` has rows()+1 entries.
  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& mutable_values() { return values_; }

  /// Number of stored entries in row `r`.
  int RowNnz(int r) const {
    return static_cast<int>(row_ptr_[r + 1] - row_ptr_[r]);
  }

  /// Returns the stored value at (r, c), or 0 if absent. O(log nnz(r)).
  float At(int r, int c) const;

  /// Densifies; intended for small matrices and tests. Row-parallel
  /// (disjoint output rows); O(rows · cols + nnz);
  /// bitwise-deterministic at any thread count.
  Matrix ToDense() const;

  /// Transposed copy; relies on each row's columns being unique (they
  /// ascend, which debug builds check). Serial; O(nnz + cols), a
  /// counting transpose.
  SparseMatrix Transposed() const;

 private:
  int rows_;
  int cols_;
  std::vector<int64_t> row_ptr_;
  std::vector<int> col_idx_;  // sorted within each row
  std::vector<float> values_;
};

}  // namespace repro::linalg

#endif  // PEEGA_LINALG_SPARSE_H_
