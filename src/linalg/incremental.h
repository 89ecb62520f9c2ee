#ifndef PEEGA_LINALG_INCREMENTAL_H_
#define PEEGA_LINALG_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace repro::linalg {

/// \file
/// Row-subset kernels for the incremental PEEGA objective engine
/// (core/peega_engine.h).
///
/// The engine holds the poisoned A_n = D^{-1/2}(A + I)D^{-1/2} as a
/// `SparseMatrix` in `graph::GcnNormalize`'s layout and refreshes only
/// the rows a flip touched. Each kernel below runs the dispatched kernel
/// of the corresponding full op in `linalg/ops.h` — `SpMMRowsInto` the
/// `SpMM` row kernel, the dot kernels `MatMulTransB`'s ascending-k dot
/// products — so a row updated incrementally is bitwise identical to the
/// same row of a from-scratch recompute, and hence to the dense autograd
/// tape path. That bitwise agreement is what makes the tape engine a
/// differential-testing oracle for the incremental engine (see
/// DESIGN.md, "Incremental objective engine").
///
/// Threading: all kernels chunk over the given row subset with disjoint
/// output rows, so results are bitwise-deterministic at any thread count.

/// For each r in `rows`: out[r] = row r of S * B, accumulated from zero
/// over S's stored entries in ascending-column order exactly as in
/// `SpMM`. Rows of `out` not listed in `rows` are untouched. Traced as
/// `linalg.norm_spmm_rows` (no `linalg.spmm` span or failpoint).
/// O(sum_r RowNnz(r) * b.cols()).
void SpMMRowsInto(const SparseMatrix& s, const std::vector<int>& rows,
                  const Matrix& b, Matrix* out);

/// For each r in `rows`: out[r][j] = dot(a[r], b[j]) for all j — row r of
/// A * B^T, the pairwise-product rows the engine's cached gradient terms
/// T_m = G_M H_m^T are refreshed with. Rows whose `row_nonzero` flag is 0
/// are known all-zero in `a` and are cleared without computing dots.
/// O(|rows| * b.rows() * a.cols()).
void DotRowsInto(const Matrix& a, const Matrix& b,
                 const std::vector<int>& rows,
                 const std::vector<char>* row_nonzero, Matrix* out);

/// Column-update companion of `DotRowsInto`: for every row i of `a` and
/// each j in `cols`, out[i][j] = dot(a[i], b[j]) (0 when row_nonzero says
/// a[i] is all-zero). Used when rows of B changed (a feature flip moved
/// rows of H_m) so whole columns of A * B^T must be refreshed.
/// O(a.rows() * |cols| * a.cols()).
void DotColsInto(const Matrix& a, const Matrix& b,
                 const std::vector<int>& cols,
                 const std::vector<char>* row_nonzero, Matrix* out);

}  // namespace repro::linalg

#endif  // PEEGA_LINALG_INCREMENTAL_H_
