#include "linalg/incremental.h"

#include <algorithm>
#include <numeric>

#include "debug/check.h"
#include "debug/numerics.h"
#include "linalg/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::linalg {

namespace {

// Chunk grain over the row subset. Outputs are disjoint per row, so the
// partition only affects load balance, never the result.
constexpr int64_t kSpmmRowGrain = 16;  // O(deg * cols) work per row

// Scans the freshly written rows for NaN/Inf in debug-numerics builds;
// checking only the touched rows keeps the guard proportional to the
// incremental work instead of the full matrix.
void CheckRowsFinite(const Matrix& m, const std::vector<int>& rows,
                     const char* what) {
  if constexpr (debug::NumericsGuardEnabled()) {
    for (int r : rows) {
      debug::CheckFiniteArray(m.row(r), m.cols(), m.cols(), what, __FILE__,
                              __LINE__);
    }
  }
}

}  // namespace

void SpMMRowsInto(const SparseMatrix& s, const std::vector<int>& rows,
                  const Matrix& b, Matrix* out) {
  PEEGA_CHECK_EQ(s.cols(), b.rows());
  PEEGA_CHECK_EQ(out->rows(), s.rows());
  PEEGA_CHECK_EQ(out->cols(), b.cols());
  const obs::TraceSpan span("linalg.norm_spmm_rows");
  static obs::Counter* const calls =
      obs::GetCounter("linalg.incremental.calls");
  static obs::Counter* const flops =
      obs::GetCounter("linalg.incremental.flops");
  calls->Add(1);
  const int cols = b.cols();
  const int64_t* row_ptr = s.row_ptr().data();
  const int* col_idx = s.col_idx().data();
  const float* values = s.values().data();
  const kernels::SpMMRowsFn kernel = kernels::SpMMTable().Select();
  parallel::ParallelFor(
      0, static_cast<int64_t>(rows.size()), kSpmmRowGrain,
      [&](int64_t i0, int64_t i1) {
        uint64_t work = 0;
        for (int64_t i = i0; i < i1; ++i) {
          const int r = rows[static_cast<size_t>(i)];
          std::fill_n(out->row(r), cols, 0.0f);
          kernel(row_ptr, col_idx, values, b.data(), out->data(), r, r + 1,
                 cols);
          work += static_cast<uint64_t>(s.RowNnz(r));
        }
        flops->Add(2 * work * static_cast<uint64_t>(cols));
      });
  CheckRowsFinite(*out, rows, "SpMMRowsInto");
}

void DotRowsInto(const Matrix& a, const Matrix& b,
                 const std::vector<int>& rows,
                 const std::vector<char>* row_nonzero, Matrix* out) {
  PEEGA_CHECK_EQ(a.cols(), b.cols());
  PEEGA_CHECK_EQ(out->rows(), a.rows());
  PEEGA_CHECK_EQ(out->cols(), b.rows());
  const obs::TraceSpan span("linalg.dot_rows");
  static obs::Counter* const calls =
      obs::GetCounter("linalg.incremental.calls");
  static obs::Counter* const flops =
      obs::GetCounter("linalg.incremental.flops");
  calls->Add(1);
  const int n = b.rows(), k = a.cols();
  // Rows flagged all-zero are cleared here and skipped by the kernel.
  std::vector<int> active;
  active.reserve(rows.size());
  for (const int r : rows) {
    if (row_nonzero == nullptr || (*row_nonzero)[r]) {
      active.push_back(r);
    } else {
      std::fill_n(out->row(r), n, 0.0f);
    }
  }
  flops->Add(2ull * active.size() * static_cast<uint64_t>(n) *
             static_cast<uint64_t>(k));
  // Parallel over column panels: each task packs its own 16 B rows and
  // sweeps the whole active row subset, which stays in L2.
  std::vector<int> cols(static_cast<size_t>(n));
  std::iota(cols.begin(), cols.end(), 0);
  kernels::DotPanels(kernels::DotTable().Select(), a.data(), active,
                     b.data(), cols, k, out->data(), n);
  CheckRowsFinite(*out, rows, "DotRowsInto");
}

void DotColsInto(const Matrix& a, const Matrix& b,
                 const std::vector<int>& cols,
                 const std::vector<char>* row_nonzero, Matrix* out) {
  PEEGA_CHECK_EQ(a.cols(), b.cols());
  PEEGA_CHECK_EQ(out->rows(), a.rows());
  PEEGA_CHECK_EQ(out->cols(), b.rows());
  const obs::TraceSpan span("linalg.dot_cols");
  static obs::Counter* const calls =
      obs::GetCounter("linalg.incremental.calls");
  static obs::Counter* const flops =
      obs::GetCounter("linalg.incremental.flops");
  calls->Add(1);
  const int k = a.cols();
  flops->Add(2ull * static_cast<uint64_t>(a.rows()) *
             static_cast<uint64_t>(cols.size()) * static_cast<uint64_t>(k));
  std::vector<int> active;
  active.reserve(static_cast<size_t>(a.rows()));
  for (int i = 0; i < a.rows(); ++i) {
    if (row_nonzero == nullptr || (*row_nonzero)[i]) {
      active.push_back(i);
    } else {
      float* crow = out->row(i);
      for (const int j : cols) crow[j] = 0.0f;
    }
  }
  // Row blocks × the subset's column panels: every task packs the
  // (few) subset columns it needs and sweeps its block of rows.
  kernels::DotPanels(kernels::DotTable().Select(), a.data(), active,
                     b.data(), cols, k, out->data(), out->cols());
  if constexpr (debug::NumericsGuardEnabled()) {
    for (int i = 0; i < out->rows(); ++i) {
      for (const int j : cols) {
        debug::CheckFiniteArray(out->row(i) + j, 1, 0, "DotColsInto",
                                __FILE__, __LINE__);
      }
    }
  }
}

}  // namespace repro::linalg
