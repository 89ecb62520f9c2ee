#include "core/peega_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "debug/check.h"
#include "debug/failpoints.h"
#include "debug/numerics.h"
#include "graph/graph.h"
#include "linalg/incremental.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::core {

using linalg::Matrix;
using linalg::SparseMatrix;

namespace {

// Row grains for the refresh stages. Every stage writes disjoint rows
// (or disjoint column slices of a fixed row), so chunking only affects
// load balance, never the cached values.
constexpr int64_t kGmRowGrain = 4;   // O(pairs * F) work per row
constexpr int64_t kSumRowGrain = 16; // O(l * N) work per row
// Rows of gnt_ per transpose chunk: the tile of gnt_ rows a chunk writes
// stays cached while G_N rows stream through it. Each tile row is one
// store stream; tiles of 32 rows made the update 25-35% slower than 8
// on peega-cora and on gnat-cora's PEEGA-Batch poisoning, 4 no faster.
constexpr int kTransposeTile = 8;

// The sentinel takes the exact objective once a running view total
// comes within 2x of FLT_MAX (see Refresh).
constexpr double kNearFloatOverflow =
    static_cast<double>(std::numeric_limits<float>::max()) / 2.0;

// 1 when row `r` of `m` holds a nonzero entry.
char RowNonzero(const Matrix& m, int r) {
  const float* row = m.row(r);
  for (int j = 0; j < m.cols(); ++j) {
    if (row[j] != 0.0f) return 1;
  }
  return 0;
}

std::vector<int> AllRows(int n) {
  std::vector<int> rows(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) rows[static_cast<size_t>(r)] = r;
  return rows;
}

// s_i = 1/sqrt(deg_i + 1), the same float expression as linalg::RSqrt on
// the float degree sum (exact for any node count below 2^24), and as the
// tape's RsqrtNonNeg on RowSums(A + I).
float GcnScale(size_t degree) {
  return 1.0f / std::sqrt(static_cast<float>(degree + 1));
}

// A_n = D^{-1/2}(A + I)D^{-1/2} in graph::GcnNormalize's CSR layout: row
// r holds {r} ∪ N(r) in ascending column order with entry (r, k) =
// scale[r] * scale[k], the float GcnNormalize computes as
// 1.0f * s_r * s_k. `neighbors(r)` yields N(r) sorted. O(nnz + N), no
// sort.
template <typename NeighborsOf>
SparseMatrix NormalizedAdjacency(const std::vector<float>& scale,
                                 const NeighborsOf& neighbors) {
  const int n = static_cast<int>(scale.size());
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (int r = 0; r < n; ++r) {
    row_ptr[static_cast<size_t>(r) + 1] =
        row_ptr[static_cast<size_t>(r)] +
        static_cast<int64_t>(neighbors(r).size()) + 1;
  }
  std::vector<int> col_idx;
  std::vector<float> values;
  col_idx.reserve(static_cast<size_t>(row_ptr.back()));
  values.reserve(static_cast<size_t>(row_ptr.back()));
  for (int r = 0; r < n; ++r) {
    const float sr = scale[static_cast<size_t>(r)];
    const auto append = [&](int k) {
      col_idx.push_back(k);
      values.push_back(sr * scale[static_cast<size_t>(k)]);
    };
    bool self_done = false;
    for (const int k : neighbors(r)) {
      if (!self_done && r < k) {
        append(r);
        self_done = true;
      }
      append(k);
    }
    if (!self_done) append(r);
  }
  return SparseMatrix::FromCsr(n, n, std::move(row_ptr), std::move(col_idx),
                               std::move(values));
}

}  // namespace

PeegaEngine::PeegaEngine(const graph::Graph& g, const Config& config)
    : n_(g.num_nodes),
      f_(g.features.cols()),
      layers_(config.layers),
      p_(config.norm_p),
      lambda_(config.lambda),
      attack_topology_(config.attack_topology),
      attack_features_(config.attack_features),
      targeted_(!config.target_nodes.empty()),
      target_count_(static_cast<size_t>(g.num_nodes),
                    config.target_nodes.empty() ? 1 : 0),
      target_order_(config.target_nodes),
      clean_(g.adjacency),
      row_marks_((static_cast<size_t>(g.num_nodes) + 63) / 64, 0) {
  // The set-up's allocations: the H chain, the W_k and, for topology
  // engines, the L + 2 dense N x N caches.
  const obs::TraceSpan span("peega_engine.setup");
  PEEGA_CHECK_GE(layers_, 1);
  PEEGA_CHECK_GE(p_, 1);
  for (int v : target_order_) {
    PEEGA_CHECK_GE(v, 0);
    PEEGA_CHECK_LT(v, n_);
    ++target_count_[static_cast<size_t>(v)];
  }

  // The global-view pairs are fixed on the CLEAN topology (Eq. 6), so
  // the clean CSR doubles as the pair index: pair k of row v is the
  // directed pair (v, col_idx[k]) in the tape's NeighborPairs order.
  const auto clean_neighbors = [&](int u) {
    return std::span<const int>(
        clean_.col_idx().data() + clean_.row_ptr()[u],
        clean_.col_idx().data() + clean_.row_ptr()[u + 1]);
  };
  scale_.resize(static_cast<size_t>(n_));
  for (int u = 0; u < n_; ++u) {
    scale_[static_cast<size_t>(u)] = GcnScale(clean_neighbors(u).size());
  }
  a_n_ = NormalizedAdjacency(scale_, clean_neighbors);

  h_.resize(static_cast<size_t>(layers_) + 1);
  h_[0] = g.features;
  const std::vector<int> all_rows = AllRows(n_);
  for (int k = 1; k <= layers_; ++k) {
    h_[static_cast<size_t>(k)] = Matrix(n_, f_);
    linalg::SpMMRowsInto(a_n_, all_rows, h_[static_cast<size_t>(k) - 1],
                         &h_[static_cast<size_t>(k)]);
  }
  // The clean surrogate A_n^l X: the graph is still unperturbed, so the
  // H chain just built IS the reference.
  reference_ = h_[static_cast<size_t>(layers_)];

  w_.resize(static_cast<size_t>(layers_));
  w_nonzero_.resize(static_cast<size_t>(layers_));
  for (int k = 0; k < layers_; ++k) {
    w_[static_cast<size_t>(k)] = Matrix(n_, f_);
    w_nonzero_[static_cast<size_t>(k)].assign(static_cast<size_t>(n_), 0);
  }
  if (attack_topology_) {
    neighbors_.resize(static_cast<size_t>(n_));
    for (int u = 0; u < n_; ++u) {
      const std::span<const int> list = clean_neighbors(u);
      neighbors_[static_cast<size_t>(u)].assign(list.begin(), list.end());
    }
    h_entries_.resize(static_cast<size_t>(layers_));
    u_.resize(static_cast<size_t>(layers_));
    for (int k = 0; k < layers_; ++k) u_[static_cast<size_t>(k)] = Matrix(n_, n_);
    gn_ = Matrix(n_, n_);
    gnt_ = Matrix(n_, n_);
    ddeg_.assign(static_cast<size_t>(n_), 0.0f);
  }
  if (attack_features_) gx_ = Matrix(n_, f_);

  self_term_.assign(static_cast<size_t>(n_), 0.0);
  self_norm_.assign(static_cast<size_t>(n_), 0.0f);
  pair_term_.assign(static_cast<size_t>(clean_.nnz()), 0.0);
  pair_norm_.assign(static_cast<size_t>(clean_.nnz()), 0.0f);
}

namespace {

// The entries of the ascending `list` in [first, last).
std::span<const int> Within(const std::vector<int>& list, int first,
                            int last) {
  const auto lo = std::lower_bound(list.begin(), list.end(), first);
  return {lo, std::lower_bound(lo, list.end(), last)};
}

}  // namespace

void PeegaEngine::EdgeScoreRow(int a, int b0, int b1, float* out) const {
  PEEGA_DCHECK(!objective_only_);
  const linalg::kernels::PairScoreRun run = {
      gn_.row(a) + b0,    gnt_.row(a) + b0,
      scale_.data() + b0, ddeg_.data() + b0,
      scale_[static_cast<size_t>(a)], ddeg_[static_cast<size_t>(a)]};
  linalg::PairScores(linalg::kernels::PairScoreForm::kRow, run,
                     Within(neighbors_[static_cast<size_t>(a)], b0, b1), b0,
                     out, b1 - b0);
}

void PeegaEngine::EdgeScoreColumn(int b, int a0, int a1, float* out) const {
  PEEGA_DCHECK(!objective_only_);
  const linalg::kernels::PairScoreRun run = {
      gnt_.row(b) + a0,   gn_.row(b) + a0,
      scale_.data() + a0, ddeg_.data() + a0,
      scale_[static_cast<size_t>(b)], ddeg_[static_cast<size_t>(b)]};
  linalg::PairScores(linalg::kernels::PairScoreForm::kColumn, run,
                     Within(neighbors_[static_cast<size_t>(b)], a0, a1), a0,
                     out, a1 - a0);
}

void PeegaEngine::FeatureScoreRow(int v, int j0, int j1, float beta,
                                  float* out) const {
  PEEGA_DCHECK(!objective_only_);
  const linalg::kernels::PairScoreRun run = {
      h_[0].row(v) + j0, gx_.row(v) + j0, nullptr, nullptr, beta, 0.0f};
  linalg::PairScores(linalg::kernels::PairScoreForm::kFeature, run, {}, j0,
                     out, j1 - j0);
}

std::vector<int> PeegaEngine::TakeMarked() {
  size_t marked = 0;
  for (const uint64_t word : row_marks_) marked += std::popcount(word);
  std::vector<int> rows;
  rows.reserve(marked);
  for (size_t w = 0; w < row_marks_.size(); ++w) {
    for (uint64_t word = row_marks_[w]; word != 0; word &= word - 1) {
      rows.push_back(static_cast<int>(w * 64) + std::countr_zero(word));
    }
    row_marks_[w] = 0;
  }
  return rows;
}

std::vector<int> PeegaEngine::Expand(const std::vector<int>& rows,
                                     const std::vector<int>& extra) {
  const auto& row_ptr = a_n_.row_ptr();
  const auto& col_idx = a_n_.col_idx();
  // Row r of A_n lists r itself: the expansion keeps every listed row.
  for (const int r : rows) {
    for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) Mark(col_idx[p]);
  }
  for (const int r : extra) Mark(r);
  return TakeMarked();
}

// One objective pair (r, ref_row): forward term + cached norm + the
// SumEdgePNorm backward contribution accumulated into `grow`, every
// float expression copied from autograd::Tape::SumEdgePNorm.
void PeegaEngine::AccumulatePairTerm(float* grow, const float* xrow,
                                     int ref_row, float weight, double* term,
                                     float* norm_out) {
  const float* rrow = reference_.row(ref_row);
  double acc = 0.0;
  for (int j = 0; j < f_; ++j) {
    const double diff = std::fabs(xrow[j] - rrow[j]);
    acc += p_ == 1 ? diff : (p_ == 2 ? diff * diff : std::pow(diff, p_));
  }
  const double normd = p_ == 1 ? acc : std::pow(acc, 1.0 / p_);
  *term = normd;
  const float norm = static_cast<float>(normd);
  *norm_out = norm;
  if (norm < 1e-12f) return;
  const float denom = p_ == 1 ? 1.0f : std::pow(norm, p_ - 1);
  for (int j = 0; j < f_; ++j) {
    const float diff = xrow[j] - rrow[j];
    if (diff == 0.0f) continue;
    const float mag =
        p_ == 1 ? 1.0f
                : (p_ == 2 ? std::fabs(diff) : std::pow(std::fabs(diff), p_ - 1));
    grow[j] += weight * (diff > 0.0f ? 1.0f : -1.0f) * mag / denom;
  }
}

PeegaEngine::ViewTotals PeegaEngine::RecomputeGmRow(int r) {
  float* grow = w_[0].row(r);
  for (int j = 0; j < f_; ++j) grow[j] = 0.0f;
  const int count = target_count_[static_cast<size_t>(r)];
  if (count == 0) {
    w_nonzero_[0][static_cast<size_t>(r)] = 0;
    return {};
  }
  ViewTotals delta;
  const float* xrow = h_[static_cast<size_t>(layers_)].row(r);
  // Global-view pairs first: the global SumEdgePNorm node is created
  // after the self one, so its backward (weight lambda from the Scale
  // node) lands in M̂'s gradient before the self pair's does.
  if (lambda_ != 0.0f) {
    const auto& row_ptr = clean_.row_ptr();
    const auto& col_idx = clean_.col_idx();
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      double& term = pair_term_[static_cast<size_t>(k)];
      delta.global -= term;
      AccumulatePairTerm(grow, xrow, col_idx[k], lambda_, &term,
                         &pair_norm_[static_cast<size_t>(k)]);
      delta.global += term;
    }
  }
  double& self = self_term_[static_cast<size_t>(r)];
  const double old_self = self;
  AccumulatePairTerm(grow, xrow, r, 1.0f, &self,
                     &self_norm_[static_cast<size_t>(r)]);
  delta.self = count * (self - old_self);
  w_nonzero_[0][static_cast<size_t>(r)] = RowNonzero(w_[0], r);
  return delta;
}

status::Status PeegaEngine::RefreshScores() { return Refresh(true); }

status::Status PeegaEngine::RefreshObjective() {
  const status::Status status = Refresh(false);
  objective_only_ = true;
  return status;
}

status::Status PeegaEngine::Refresh(bool scores) {
  PEEGA_CHECK(!objective_only_) << kNoScores;
  changed_feature_rows_.clear();
  changed_edge_rows_.clear();
  if (!status_.ok()) return status_;  // latched failure
  if (PEEGA_FAILPOINT("engine.step")) {
    status_ = status::NumericFault("injected failpoint engine.step");
    return status_;
  }
  if (!fresh_ && !any_pending_) return status::Status::Ok();
  const obs::TraceSpan span("peega_engine.refresh");
  static obs::Counter* const refreshes =
      obs::GetCounter("peega_engine.refreshes");
  static obs::Counter* const rows_touched =
      obs::GetCounter("peega_engine.rows_touched");
  refreshes->Add(1);
  if (a_n_stale_) {
    a_n_ = NormalizedAdjacency(scale_, [&](int u) -> const std::vector<int>& {
      return neighbors_[static_cast<size_t>(u)];
    });
    a_n_stale_ = false;
  }

  const bool full = fresh_;
  // Changed-row sets, one per cache level, each ascending. d[k] holds the
  // rows of H_k a pending flip reaches (feature flips enter at H_0, edge
  // flips at every level through the A_n rows they rescale); e[k] holds
  // the rows of W_k = A_n^k G_M the same flips reach on the backward
  // side. An objective-only refresh needs e[0] alone. Each level costs
  // the previous level's A_n nnz plus an N/64-word scan of row_marks_.
  std::vector<std::vector<int>> d(static_cast<size_t>(layers_) + 1);
  std::vector<std::vector<int>> e(scores ? static_cast<size_t>(layers_) + 1
                                         : 1);
  {
    const obs::TraceSpan rows_span("peega_engine.row_sets");
    if (full) {
      for (auto& rows : d) rows = AllRows(n_);
      for (auto& rows : e) rows = AllRows(n_);
    } else {
      d[0] = Expand({}, pending_rows_h0_);
      for (size_t k = 1; k < d.size(); ++k) {
        d[k] = Expand(d[k - 1], pending_rows_a_);
      }
      // e[0] = d[l] (G_M rows follow M̂ rows); pending A_n rows are
      // already contained in it, so each further level is a plain
      // expansion.
      e[0] = d.back();
      for (size_t k = 1; k < e.size(); ++k) e[k] = Expand(e[k - 1], {});
    }
  }
  for (const auto& rows : d) rows_touched->Add(rows.size());

  // 1. Forward chain: H_k rows.
  for (int k = 1; k <= layers_; ++k) {
    linalg::SpMMRowsInto(a_n_, d[static_cast<size_t>(k)],
                         h_[static_cast<size_t>(k) - 1],
                         &h_[static_cast<size_t>(k)]);
  }

  // 2. G_M rows (and the objective pair terms riding along).
  std::vector<ViewTotals> deltas(e[0].size());
  {
    const obs::TraceSpan gm_span("peega_engine.gm_rows");
    const auto& rows = e[0];
    parallel::ParallelFor(0, static_cast<int64_t>(rows.size()), kGmRowGrain,
                          [&](int64_t i0, int64_t i1) {
                            for (int64_t i = i0; i < i1; ++i) {
                              deltas[static_cast<size_t>(i)] = RecomputeGmRow(
                                  rows[static_cast<size_t>(i)]);
                            }
                          });
  }

  if (scores) RefreshGradients(full, d, std::move(e));

  fresh_ = false;
  pending_rows_a_.clear();
  pending_rows_h0_.clear();
  any_pending_ = false;

  // NaN scores silently break the greedy scans (NaN comparisons are all
  // false, so the best-flip search would just find nothing); surface the
  // fault instead so callers can stop with an attributable status. The
  // objective aggregates every self/pair term, making it a one-number
  // sentinel for the whole score state, but summing it is O(N + pairs),
  // so the sentinel follows the terms this refresh rewrote. Terms are
  // p-norms, >= 0 or NaN/inf, and every other term was finite when
  // written. So a non-finite rewritten term makes a running total and
  // the exact sum non-finite, and with every term finite only the float
  // composition can overflow, which it cannot while global and
  // self + |lambda| * global stay below FLT_MAX / 2 (DESIGN.md, "The NaN
  // sentinel"). The latch fires on exactly the refresh the exact sum
  // would.
  const obs::TraceSpan objective_span("peega_engine.objective");
  bool exact = full || !scores;
  if (!exact) {
    for (const ViewTotals& delta : deltas) {
      running_.self += delta.self;
      running_.global += delta.global;
    }
    if (!std::isfinite(running_.self) || !std::isfinite(running_.global)) {
      status_ = status::NumericFault("non-finite PEEGA objective");
      return status_;
    }
    exact = running_.global >= kNearFloatOverflow ||
            running_.self + std::fabs(lambda_) * running_.global >=
                kNearFloatOverflow;
  }
  if (exact) {
    running_ = ExactTotals();
    if (!std::isfinite(Compose(running_))) {
      status_ = status::NumericFault("non-finite PEEGA objective");
    }
  }
  return status_;
}

void PeegaEngine::RefreshGradients(bool full,
                                   const std::vector<std::vector<int>>& d,
                                   std::vector<std::vector<int>> e) {
  // 3. Backward chains W_k = A_n W_{k-1}, rows e[k]; nonzero flags track
  //    freshly written rows so the U updates can skip zero-support rows.
  for (size_t k = 1; k < w_.size(); ++k) {
    linalg::SpMMRowsInto(a_n_, e[k], w_[k - 1], &w_[k]);
    for (const int r : e[k]) {
      w_nonzero_[k][static_cast<size_t>(r)] = RowNonzero(w_[k], r);
    }
  }

  if (attack_topology_) {
    // 4. U_k = W_k H_{l-1-k}^T — rows where W_k moved, columns where
    //    H_{l-1-k} moved (redundant on a full build). The dots walk the
    //    stored entries of H_{l-1-k}, so first re-list the rows d[m] of
    //    each H_m (m < l) that the forward chain, or at m = 0 a feature
    //    flip, rewrote.
    {
      const obs::TraceSpan relist_span("peega_engine.relist");
      for (int m = 0; m < layers_; ++m) {
        const Matrix& hm = h_[static_cast<size_t>(m)];
        auto& entries = h_entries_[static_cast<size_t>(m)];
        if (full) {
          entries = linalg::RowEntries(hm);
        } else {
          entries.Relist(hm, d[static_cast<size_t>(m)]);
        }
      }
    }
    for (int k = 0; k < layers_; ++k) {
      Matrix* uk = &u_[static_cast<size_t>(k)];
      const size_t m = static_cast<size_t>(layers_ - 1 - k);
      const Matrix& wk = w_[static_cast<size_t>(k)];
      const std::vector<char>* nonzero = &w_nonzero_[static_cast<size_t>(k)];
      linalg::DotRowsInto(wk, h_[m], h_entries_[m], e[static_cast<size_t>(k)],
                          nonzero, uk);
      if (!full && !d[m].empty()) {
        linalg::DotColsInto(wk, h_[m], h_entries_[m], d[m], nonzero, uk);
      }
    }

    // ddeg_[a] (step 6) reads G_N, scale_ and the degree over the closed
    // neighbourhood of a. G_N moves only in rows e[l-1] and columns
    // d[l-1] ⊆ e[l-1] (step 5), and scale_, degrees and neighbourhoods
    // only at flipped endpoints, which are in e[0] ⊆ e[l-1]. So ddeg_[a]
    // can move only for a in the closed neighbourhood of e[l-1].
    const std::vector<int> deg_rows =
        full ? AllRows(n_) : Expand(e[static_cast<size_t>(layers_) - 1], {});

    // 5. G_N = U_0 + U_1 + ... in the tape's reverse-layer Axpy order.
    //    Changed entries live in rows e[l-1] (all U row sets nest into
    //    it) and columns d[l-1] (likewise for the column sets).
    {
      const obs::TraceSpan sum_span("peega_engine.gn_sum");
      for (const int r : e[static_cast<size_t>(layers_) - 1]) Mark(r);
      const auto& cols = d[static_cast<size_t>(layers_) - 1];
      parallel::ParallelFor(
          0, n_, kSumRowGrain, [&](int64_t r0, int64_t r1) {
            std::vector<const float*> urow(static_cast<size_t>(layers_));
            for (int i = static_cast<int>(r0); i < static_cast<int>(r1);
                 ++i) {
              float* grow = gn_.row(i);
              for (int k = 0; k < layers_; ++k) {
                urow[static_cast<size_t>(k)] = u_[static_cast<size_t>(k)].row(i);
              }
              const auto sum_entry = [&](int j) {
                float acc = urow[0][j];
                for (int k = 1; k < layers_; ++k) {
                  acc = acc + urow[static_cast<size_t>(k)][j];
                }
                grow[j] = acc;
              };
              if (full || Marked(i)) {
                for (int j = 0; j < n_; ++j) sum_entry(j);
              } else {
                for (const int j : cols) sum_entry(j);
              }
            }
          });
    }
    {
      const obs::TraceSpan transpose_span("peega_engine.gn_transpose");
      TransposeGn(full, e[static_cast<size_t>(layers_) - 1],
                  d[static_cast<size_t>(layers_) - 1]);
    }

    // Edge rows R: G_N moved only in rows e[l-1] and columns d[l-1],
    // and d[l-1] ⊆ d[l] = e[0] ⊆ e[l-1]. The flipped endpoints are
    // pending A_n rows, so e[0] holds them too. e[l-1] is still marked
    // from the sum above; ddeg_ is marked below where its bits move.

    // 6. Degree chain rule. The tape's s-gradient accumulates the
    //    ScaleColsVar backward (column sums of G_N against the
    //    row-scaled values) before the ScaleRowsVar backward (row sums
    //    against A + I), then scales by d(1/sqrt)/d(deg). A + I is 0/1,
    //    so both reduce to sums over the closed neighborhood — row a of
    //    A_n, in ascending column order; zero entries contribute exact
    //    zeros in the tape and are skipped here. O(nnz) over the rows
    //    deg_rows; every other ddeg_ keeps its bits.
    {
      const obs::TraceSpan deg_span("peega_engine.degree_chain");
      const auto& row_ptr = a_n_.row_ptr();
      const auto& col_idx = a_n_.col_idx();
      for (const int a : deg_rows) {
        float ds_col = 0.0f;
        float ds_row = 0.0f;
        for (int64_t p = row_ptr[a]; p < row_ptr[a + 1]; ++p) {
          const int i = col_idx[p];
          ds_col += gnt_(a, i) * scale_[static_cast<size_t>(i)];
          ds_row += gn_(a, i) * scale_[static_cast<size_t>(i)];
        }
        const float s_grad = ds_col + ds_row;
        const float degf = static_cast<float>(a_n_.RowNnz(a));
        const float dscale = -0.5f * std::pow(degf, -1.5f);
        const float next = s_grad * dscale;
        if (std::bit_cast<uint32_t>(next) !=
            std::bit_cast<uint32_t>(ddeg_[static_cast<size_t>(a)])) {
          Mark(a);
        }
        ddeg_[static_cast<size_t>(a)] = next;
      }
      if constexpr (debug::NumericsGuardEnabled()) {
        debug::CheckFiniteArray(ddeg_.data(), static_cast<int64_t>(ddeg_.size()),
                                static_cast<int>(ddeg_.size()), "PeegaEngine ddeg",
                                __FILE__, __LINE__);
      }
    }
    changed_edge_rows_ = TakeMarked();
  }

  // 7. G_X = A_n W_{l-1}: one more propagation hop past the last W level.
  if (attack_features_) {
    linalg::SpMMRowsInto(a_n_, e[static_cast<size_t>(layers_)], w_.back(),
                         &gx_);
    changed_feature_rows_ = std::move(e[static_cast<size_t>(layers_)]);
  }
}

void PeegaEngine::TransposeGn(bool full, const std::vector<int>& rows,
                              const std::vector<int>& cols) {
  // Chunks own kTransposeTile rows of gnt_ (columns of G_N) outright.
  // Each G_N row a chunk reads is read contiguously, the chunk's columns
  // of it, while the tile's gnt_ rows stay cached.
  parallel::ParallelFor(0, n_, kTransposeTile, [&](int64_t j0, int64_t j1) {
    const int jb = static_cast<int>(j0);
    const int je = static_cast<int>(j1);
    // G_N's rewritten rows become columns of the tile.
    for (const int i : rows) {
      const float* src = gn_.row(i);
      for (int j = jb; j < je; ++j) gnt_.row(j)[i] = src[j];
    }
    if (full) return;  // `rows` were every row
    // Its rewritten columns in the tile become whole rows, ascending,
    // past the rows `rows` (marked by the G_N sum) already copied whole.
    const auto first = std::lower_bound(cols.begin(), cols.end(), jb);
    const auto last = std::lower_bound(first, cols.end(), je);
    if (first == last) return;
    for (int i = 0; i < n_; ++i) {
      if (Marked(i)) continue;
      const float* src = gn_.row(i);
      for (auto c = first; c != last; ++c) gnt_.row(*c)[i] = src[*c];
    }
  });
  if constexpr (debug::NumericsGuardEnabled()) {
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        PEEGA_CHECK(std::bit_cast<uint32_t>(gnt_(j, i)) ==
                    std::bit_cast<uint32_t>(gn_(i, j)))
            << " gnt_ is not G_N^T at (" << j << ", " << i << ")";
      }
    }
  }
}

void PeegaEngine::FlipEdge(int u, int v) {
  PEEGA_CHECK(!objective_only_) << kNoScores;
  PEEGA_CHECK(attack_topology_) << " — FlipEdge on a features-only engine";
  PEEGA_CHECK_NE(u, v) << " — self-loop flips are not valid perturbations";
  PEEGA_CHECK_GE(u, 0);
  PEEGA_CHECK_LT(u, n_);
  PEEGA_CHECK_GE(v, 0);
  PEEGA_CHECK_LT(v, n_);
  // Rows of A_n touched by the flip: u and v change scale (every entry
  // of their rows rescales), and each PRE-flip neighbor of u or v holds
  // an entry s_i * s_{u|v} that rescales with it. Post-flip neighbor
  // sets only add the opposite endpoint, which is already marked.
  auto mark = [&](int a) {
    const auto& list = neighbors_[static_cast<size_t>(a)];
    pending_rows_a_.push_back(a);
    pending_rows_a_.insert(pending_rows_a_.end(), list.begin(), list.end());
  };
  mark(u);
  mark(v);
  const bool had = HasEdge(u, v);
  auto toggle = [&](int a, int b) {
    auto& list = neighbors_[static_cast<size_t>(a)];
    const auto it = std::lower_bound(list.begin(), list.end(), b);
    if (had) {
      PEEGA_CHECK(it != list.end() && *it == b);
      list.erase(it);
    } else {
      list.insert(it, b);
    }
  };
  toggle(u, v);
  toggle(v, u);
  scale_[static_cast<size_t>(u)] = GcnScale(neighbors_[static_cast<size_t>(u)].size());
  scale_[static_cast<size_t>(v)] = GcnScale(neighbors_[static_cast<size_t>(v)].size());
  edge_flips_.emplace_back(u, v);
  a_n_stale_ = true;
  any_pending_ = true;
}

void PeegaEngine::FlipFeature(int v, int j) {
  PEEGA_CHECK(!objective_only_) << kNoScores;
  PEEGA_CHECK_GE(v, 0);
  PEEGA_CHECK_LT(v, n_);
  PEEGA_CHECK_GE(j, 0);
  PEEGA_CHECK_LT(j, f_);
  float& x = h_[0](v, j);
  x = x > 0.5f ? 0.0f : 1.0f;
  pending_rows_h0_.push_back(v);
  any_pending_ = true;
}

PeegaEngine::ViewTotals PeegaEngine::ExactTotals() const {
  // Each view double-accumulated in the tape's pair order.
  ViewTotals totals;
  if (targeted_) {
    for (const int v : target_order_) {
      totals.self += self_term_[static_cast<size_t>(v)];
    }
  } else {
    for (int v = 0; v < n_; ++v) totals.self += self_term_[static_cast<size_t>(v)];
  }
  if (lambda_ == 0.0f) return totals;  // no pair terms
  const auto& row_ptr = clean_.row_ptr();
  for (int v = 0; v < n_; ++v) {
    if (target_count_[static_cast<size_t>(v)] == 0) continue;
    for (int64_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
      totals.global += pair_term_[static_cast<size_t>(k)];
    }
  }
  return totals;
}

double PeegaEngine::Objective() const {
  PEEGA_CHECK(!fresh_ && !any_pending_)
      << " — call RefreshScores() before Objective()";
  return Compose(ExactTotals());
}

double PeegaEngine::Compose(const ViewTotals& totals) const {
  // In float like the tape: float(self) + float(lambda * float(global)).
  const float self_view = static_cast<float>(totals.self);
  if (lambda_ == 0.0f) return static_cast<double>(self_view);
  const float global_view = static_cast<float>(totals.global);
  return static_cast<double>(self_view + global_view * lambda_);
}

SparseMatrix PeegaEngine::PoisonedAdjacency() const {
  return graph::WithFlips(clean_, edge_flips_);
}

}  // namespace repro::core
