#ifndef PEEGA_LINALG_INCREMENTAL_H_
#define PEEGA_LINALG_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/kernels/kernels.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace repro::linalg {

/// \file
/// Row-subset kernels for the incremental PEEGA objective engine
/// (core/peega_engine.h).
///
/// The engine holds the poisoned A_n = D^{-1/2}(A + I)D^{-1/2} as a
/// `SparseMatrix` in `graph::GcnNormalize`'s layout and refreshes only
/// the rows a flip touched. `SpMMRowsInto` runs the `SpMM` row kernel,
/// and the dot kernels compute `MatMulTransB`'s ascending-k dot products
/// over the stored entries of their right factor, skipping only products
/// that cannot change the float — so a row updated incrementally is
/// bitwise identical to the same row of a from-scratch recompute, and
/// hence to the dense autograd tape path. That bitwise agreement is what
/// makes the tape engine a differential-testing oracle for the
/// incremental engine (see DESIGN.md, "Incremental objective engine").
///
/// Threading: all kernels chunk over the given rows (the dots over tiles
/// of 8 of them) with disjoint outputs, so results are
/// bitwise-deterministic at any thread count.

/// For each r in `rows`: out[r] = row r of S * B, accumulated from zero
/// over S's stored entries in ascending-column order exactly as in
/// `SpMM`. Rows of `out` not listed in `rows` are untouched. Traced as
/// `linalg.norm_spmm_rows` (no `linalg.spmm` span or failpoint).
/// O(sum_r RowNnz(r) * b.cols()).
void SpMMRowsInto(const SparseMatrix& s, const std::vector<int>& rows,
                  const Matrix& b, Matrix* out);

/// The stored entries of a dense matrix, one list per row: the entries
/// != 0 (NaN included), as (column, value) pairs ascending by column.
/// The right factor of `DotRowsInto` / `DotColsInto`. The owner keeps it
/// in step with the matrix by re-listing the rows it rewrites.
class RowEntries {
 public:
  RowEntries() = default;
  /// Lists every row of `m`. O(m.size()).
  explicit RowEntries(const Matrix& m);

  /// Re-lists rows `rows` of `m` (no repeats, any order); every other
  /// list is kept. Row-parallel. O(|rows| · m.cols()).
  void Relist(const Matrix& m, const std::vector<int>& rows);

  int rows() const { return static_cast<int>(lists_.size()); }
  /// Row r's list, as the kernels read it.
  kernels::EntryRow row(int r) const {
    const auto& list = lists_[static_cast<size_t>(r)];
    return {list.data(), static_cast<int64_t>(list.size())};
  }

 private:
  std::vector<std::vector<kernels::StoredEntry>> lists_;
};

/// For each r in `rows`: out[r][j] = dot(a[r], b[j]) for all j — row r of
/// A * B^T, the pairwise-product rows the engine's cached gradient terms
/// U_k = W_k H_{l-1-k}^T are refreshed with. `b_entries` lists B's
/// stored entries (the caller keeps it in step with `b`); each dot walks
/// only those, in ascending column order, which is the float of the
/// dense ascending-k dot while a[r] is finite. Rows of `a` holding a NaN
/// or ±Inf take the dense `MatMulTransB` kernel over `b` instead, so
/// every output is the dense product's float. Rows whose `row_nonzero`
/// flag is 0 are known all-zero in `a` and are cleared without computing
/// dots. O(|rows| · nnz(B) + |rows| · a.cols()), the second term the
/// tile pack.
void DotRowsInto(const Matrix& a, const Matrix& b,
                 const RowEntries& b_entries, const std::vector<int>& rows,
                 const std::vector<char>* row_nonzero, Matrix* out);

/// Column-update companion of `DotRowsInto`: for every row i of `a` and
/// each j in `cols`, out[i][j] = dot(a[i], b[j]) (0 when row_nonzero says
/// a[i] is all-zero), over b[j]'s stored entries as above. Used when
/// rows of B changed (a feature flip moved rows of H_m) so whole columns
/// of A * B^T must be refreshed.
/// O(a.rows() · Σ_{j ∈ cols} nnz(b[j]) + a.rows() · a.cols()), the
/// second term the tile pack.
void DotColsInto(const Matrix& a, const Matrix& b,
                 const RowEntries& b_entries, const std::vector<int>& cols,
                 const std::vector<char>* row_nonzero, Matrix* out);

/// One run of n greedy-scan scores (`linalg.pair_scores`): out[i] by
/// `form`'s formula in kernels::PairScoreForm, then -1.0f · out[v −
/// first] for every v in `negate` (ascending, each in [first, first +
/// n)): the candidates that are edges, whose flip removes them. The
/// engine's EdgeScoreRow, EdgeScoreColumn and FeatureScoreRow; every
/// output is the float of the engine's scalar EdgeScore, or of its
/// FeatureScore / β. No span or counter: a scan makes thousands of
/// calls.
/// O(n + |negate|).
void PairScores(kernels::PairScoreForm form, const kernels::PairScoreRun& run,
                std::span<const int> negate, int first, float* out,
                int64_t n);

}  // namespace repro::linalg

#endif  // PEEGA_LINALG_INCREMENTAL_H_
