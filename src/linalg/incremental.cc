#include "linalg/incremental.h"

#include <algorithm>
#include <bit>
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
constexpr int64_t kRelistRowGrain = 16;  // O(cols) work per row

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

RowEntries::RowEntries(const Matrix& m)
    : lists_(static_cast<size_t>(m.rows())) {
  std::vector<int> rows(static_cast<size_t>(m.rows()));
  std::iota(rows.begin(), rows.end(), 0);
  Relist(m, rows);
}

void RowEntries::Relist(const Matrix& m, const std::vector<int>& rows) {
  PEEGA_CHECK_EQ(m.rows(), this->rows());
  parallel::ParallelFor(
      0, static_cast<int64_t>(rows.size()), kRelistRowGrain,
      [&](int64_t i0, int64_t i1) {
        // Per-thread scratch of one full row, grown once.
        thread_local std::vector<kernels::StoredEntry> scratch;
        scratch.resize(static_cast<size_t>(m.cols()));
        for (int64_t i = i0; i < i1; ++i) {
          const int r = rows[static_cast<size_t>(i)];
          const float* values = m.row(r);
          size_t count = 0;
          for (int j = 0; j < m.cols(); ++j) {
            // NaN != 0 too: only the zeros, of either sign, go unlisted.
            if (values[j] != 0.0f) scratch[count++] = {j, values[j]};
          }
          lists_[static_cast<size_t>(r)].assign(scratch.begin(),
                                                scratch.begin() + count);
        }
      });
}

namespace {

// out[r][cols[l]] = dot(a[r], b[cols[l]]) for every r in `rows`, where
// b_rows[l] lists b[cols[l]]'s stored entries: the sparse-B kernel in
// parallel over tiles of kSparseDotTile rows, then the dense kernel for
// the rows the tiles left, those holding a NaN or ±Inf. Returns the
// FLOPs, two per product computed.
uint64_t DotOverEntries(const Matrix& a, const Matrix& b,
                        const std::vector<int>& rows,
                        const std::vector<kernels::EntryRow>& b_rows,
                        const std::vector<int>& cols, Matrix* out) {
  const int64_t m = static_cast<int64_t>(rows.size());
  const int64_t tiles = (m + kernels::kSparseDotTile - 1) /
                        kernels::kSparseDotTile;
  const int k = a.cols();
  const kernels::SparseDotTileFn kernel = kernels::SparseDotTable().Select();
  std::vector<uint32_t> non_finite(static_cast<size_t>(tiles), 0);
  parallel::ParallelFor(0, tiles, 1, [&](int64_t t0, int64_t t1) {
    // Per-thread scratch, grown once to the largest k seen.
    thread_local std::vector<float> panel;
    panel.resize(static_cast<size_t>(kernels::kSparseDotTile) *
                 static_cast<size_t>(k));
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t r0 = t * kernels::kSparseDotTile;
      non_finite[static_cast<size_t>(t)] = kernel(
          a.data(), rows.data() + r0,
          static_cast<int>(std::min<int64_t>(kernels::kSparseDotTile, m - r0)),
          k, b_rows.data(), cols.data(), static_cast<int64_t>(cols.size()),
          out->data(), out->cols(), panel.data());
    }
  });
  size_t dense_rows = 0;
  for (const uint32_t bits : non_finite) dense_rows += std::popcount(bits);
  std::vector<int> dense;
  dense.reserve(dense_rows);
  for (int64_t t = 0; t < tiles; ++t) {
    for (uint32_t bits = non_finite[static_cast<size_t>(t)]; bits != 0;
         bits &= bits - 1) {
      dense.push_back(rows[static_cast<size_t>(
          t * kernels::kSparseDotTile + std::countr_zero(bits))]);
    }
  }
  kernels::DotPanels(kernels::DotTable().Select(), a.data(), dense, b.data(),
                     cols, k, out->data(), out->cols());
  uint64_t walked = 0;
  for (const kernels::EntryRow& row : b_rows) {
    walked += static_cast<uint64_t>(row.count);
  }
  return 2 * ((rows.size() - dense_rows) * walked +
              dense_rows * cols.size() * static_cast<uint64_t>(k));
}

}  // namespace

void DotRowsInto(const Matrix& a, const Matrix& b,
                 const RowEntries& b_entries, const std::vector<int>& rows,
                 const std::vector<char>* row_nonzero, Matrix* out) {
  PEEGA_CHECK_EQ(a.cols(), b.cols());
  PEEGA_CHECK_EQ(b_entries.rows(), b.rows());
  PEEGA_CHECK_EQ(out->rows(), a.rows());
  PEEGA_CHECK_EQ(out->cols(), b.rows());
  const obs::TraceSpan span("linalg.dot_rows");
  static obs::Counter* const calls =
      obs::GetCounter("linalg.incremental.calls");
  static obs::Counter* const flops =
      obs::GetCounter("linalg.incremental.flops");
  calls->Add(1);
  const int n = b.rows();
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
  std::vector<int> cols(static_cast<size_t>(n));
  std::iota(cols.begin(), cols.end(), 0);
  std::vector<kernels::EntryRow> b_rows(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) b_rows[static_cast<size_t>(j)] = b_entries.row(j);
  flops->Add(DotOverEntries(a, b, active, b_rows, cols, out));
  CheckRowsFinite(*out, rows, "DotRowsInto");
}

void DotColsInto(const Matrix& a, const Matrix& b,
                 const RowEntries& b_entries, const std::vector<int>& cols,
                 const std::vector<char>* row_nonzero, Matrix* out) {
  PEEGA_CHECK_EQ(a.cols(), b.cols());
  PEEGA_CHECK_EQ(b_entries.rows(), b.rows());
  PEEGA_CHECK_EQ(out->rows(), a.rows());
  PEEGA_CHECK_EQ(out->cols(), b.rows());
  const obs::TraceSpan span("linalg.dot_cols");
  static obs::Counter* const calls =
      obs::GetCounter("linalg.incremental.calls");
  static obs::Counter* const flops =
      obs::GetCounter("linalg.incremental.flops");
  calls->Add(1);
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
  std::vector<kernels::EntryRow> b_rows;
  b_rows.reserve(cols.size());
  for (const int j : cols) b_rows.push_back(b_entries.row(j));
  // Row tiles over every row of A: each packs its tile once and walks
  // the (few) subset columns.
  flops->Add(DotOverEntries(a, b, active, b_rows, cols, out));
  if constexpr (debug::NumericsGuardEnabled()) {
    for (int i = 0; i < out->rows(); ++i) {
      for (const int j : cols) {
        debug::CheckFiniteArray(out->row(i) + j, 1, 0, "DotColsInto",
                                __FILE__, __LINE__);
      }
    }
  }
}

void PairScores(kernels::PairScoreForm form, const kernels::PairScoreRun& run,
                std::span<const int> negate, int first, float* out,
                int64_t n) {
  kernels::PairScoresTable().Select()(form, run, out, n);
  // The scalar scores' `direction *`, with direction -1.
  for (const int v : negate) out[v - first] = -1.0f * out[v - first];
}

}  // namespace repro::linalg
