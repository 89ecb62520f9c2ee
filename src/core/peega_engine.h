#ifndef PEEGA_CORE_PEEGA_ENGINE_H_
#define PEEGA_CORE_PEEGA_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "debug/check.h"
#include "graph/graph.h"
#include "linalg/incremental.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "status/status.h"

namespace repro::core {

/// Incremental evaluation engine for the PEEGA objective (Def. 3).
///
/// The tape path re-materializes the dense normalized adjacency and
/// replays `layers` dense MatMuls plus a full backward pass on every
/// greedy iteration: O(N²F) per committed flip. This engine caches every
/// intermediate of that computation across flips —
///
///   H_k   = A_n^k X            (k = 0..l; H_l is the surrogate M̂),
///   G_M   = ∂J/∂M̂              (per-pair p-norm backward terms),
///   W_k   = A_n^k G_M          (k = 0..l-1; the backward's dM chain),
///   U_k   = W_k H_{l-1-k}^T    (the per-layer adjacency-grad terms),
///   G_N   = ∂J/∂A_n = U_0 + U_1 + ... + U_{l-1},
///   grad A = chain rule of A_n = D^{-1/2}(A+I)D^{-1/2} through the
///            degree terms,
///   G_X   = ∂J/∂X = A_n^l G_M = A_n W_{l-1}
///
/// — and after each committed flip refreshes only what the flip touched:
/// an edge flip (u,v) rescales the normalized rows of u, v, and their
/// neighbors, whose effect reaches l hops in H and the T row updates; a
/// feature flip (v,j) propagates one changed X row the same way. Scan
/// scores then come from these closed-form gradients instead of a fresh
/// autograd tape.
///
/// Equivalence with the tape (why the differential tests can demand the
/// EXACT flip sequence): every cache above is maintained BITWISE equal
/// to the corresponding tape intermediate. Row updates recompute
/// affected rows with kernels whose float accumulation order matches
/// the dense tape kernels exactly (see linalg/incremental.h), and the
/// gradient caches keep the tape's own term structure — W_k = A_n^k G_M
/// mirrors the MatMulTransA backward chain and U_k = W_k H_{l-1-k}^T the
/// MatMulTransB terms, summed into G_N in the tape's reverse-layer
/// accumulation order — rather than an algebraically equal refactoring
/// that would round differently. The per-pair backward, the degree chain
/// rule, and the score composition mirror the tape's float expressions
/// operation for operation, so scan scores, tie-breaks, the greedy flip
/// sequence, and the objective are identical to the tape engine, not
/// merely close. DESIGN.md ("Incremental objective engine") gives the
/// full argument.
///
/// Threading: all refresh kernels chunk deterministically over disjoint
/// rows (see linalg/incremental.h), so every cached matrix — and hence
/// every score — is bitwise-identical at any thread count.
///
/// Usage (one greedy iteration):
///   engine.RefreshScores();
///   ... name changed_edge_rows() / changed_feature_rows() to the
///       attack::ScanCache scans, which read EdgeScore / FeatureScore ...
///   engine.FlipEdge(u, v);   // or FlipFeature(v, j); repeatable
/// and, after the last commit, engine.RefreshObjective() for Objective().
class PeegaEngine {
 public:
  struct Config {
    int layers = 2;
    int norm_p = 2;
    float lambda = 0.01f;
    /// Disable a side to skip its gradient machinery entirely (the mode
    /// ablation of Fig. 5a).
    bool attack_topology = true;
    bool attack_features = true;
    /// Non-empty = targeted attack: objective restricted to these rows.
    std::vector<int> target_nodes;
  };

  /// Captures the clean reference A_n^l X and the initial caches.
  PeegaEngine(const graph::Graph& g, const Config& config);

  /// Brings every cached gradient up to date with the flips committed
  /// since the last call. Must be called before reading scores or the
  /// objective; the first call pays the full O(N²F) build, later calls
  /// only the perturbed region.
  ///
  /// Returns non-OK (kNumericFault) when the refreshed objective is no
  /// longer finite — from a genuine numeric fault or the `engine.step`
  /// failpoint — after which the engine is latched: further refreshes
  /// are no-ops returning the same status, and the caller must stop
  /// reading scores and emit a best-so-far result from the committed
  /// graph state (PoisonedAdjacency()/features(), which stay valid).
  status::Status RefreshScores();

  /// The final refresh of a campaign: brings only the forward chain and
  /// the objective terms up to date, for Objective(), and checks the
  /// objective exactly. Same latch and status as RefreshScores(). The
  /// engine then holds no scores: it refuses further refreshes, flips
  /// and changed-row reads (PEEGA_CHECK), and score reads in debug
  /// builds (PEEGA_DCHECK; they sit in the scans' inner loops).
  status::Status RefreshObjective();

  /// Scan score of flipping edge (u, v), u < v: the tape's
  /// (1 - 2A[u][v]) * (grad[u][v] + grad[v][u]) from closed-form
  /// gradients. Valid after RefreshScores().
  float EdgeScore(int u, int v) const {
    PEEGA_DCHECK(!objective_only_);
    const float direction = HasEdge(u, v) ? -1.0f : 1.0f;
    // PairGradient(v, u) in its own operation order, with G_N[v][u] read
    // along row u of gnt_: the scan walks v, so both terms read by rows.
    const float t = gnt_.row(u)[v] * scale_[u];
    const float t2 = t * scale_[v];
    return direction * (PairGradient(u, v) + (t2 + ddeg_[v]));
  }

  /// Scan score of flipping feature bit (v, j) — WITHOUT the 1/beta
  /// normalization, exactly like the raw tape gradient scan.
  float FeatureScore(int v, int j) const {
    PEEGA_DCHECK_LT(j, f_);
    PEEGA_DCHECK(!objective_only_);
    const float direction = 1.0f - 2.0f * h_[0].row(v)[j];
    return direction * gx_.row(v)[j];
  }

  /// The scan's blocks of scores, each the bits of the scalar score it
  /// replaces (linalg::PairScores). EdgeScoreRow writes EdgeScore(a, b)
  /// for b in [b0, b1) to out[b - b0], from rows a of G_N and gnt_.
  void EdgeScoreRow(int a, int b0, int b1, float* out) const;
  /// EdgeScore(a, b) for a in [a0, a1) to out[a - a0]: a run down
  /// column b of G_N, read along rows b of gnt_ and G_N (G_N[a][b] =
  /// gnt_[b][a]).
  void EdgeScoreColumn(int b, int a0, int a1, float* out) const;
  /// FeatureScore(v, j) / beta for j in [j0, j1) to out[j - j0], from
  /// rows v of H_0 and G_X: the scan's normalized feature scores, and
  /// FeatureScore's own bits at beta = 1.
  void FeatureScoreRow(int v, int j0, int j1, float beta, float* out) const;

  /// Rows whose FeatureScore may have changed in the last
  /// RefreshScores(): the rows e[l] of G_X it rewrote, which hold every
  /// feature flipped since the refresh before. Every row after the full
  /// build, none after a refresh with nothing pending. Ascending.
  const std::vector<int>& changed_feature_rows() const {
    PEEGA_CHECK(!objective_only_) << kNoScores;
    return changed_feature_rows_;
  }

  /// Nodes R of the last RefreshScores(): an EdgeScore changed only if
  /// an endpoint is in R. R = e[l-1] ∪ d[l-1] (G_N's rewritten rows and
  /// columns) ∪ the endpoints of the flips since the refresh before
  /// (their scale_ and adjacency moved) ∪ the nodes whose ddeg_ changed
  /// bitwise. The first three are all e[l-1]. Every node after the full
  /// build, none after a refresh with nothing pending. Ascending.
  const std::vector<int>& changed_edge_rows() const {
    PEEGA_CHECK(!objective_only_) << kNoScores;
    return changed_edge_rows_;
  }

  /// Closed-form ∂J/∂A[a][b] mirroring the tape's accumulated adjacency
  /// gradient (exposed for the gradcheck property tests).
  float PairGradient(int a, int b) const {
    PEEGA_DCHECK_LT(b, n_);
    PEEGA_DCHECK(!objective_only_);
    const float t = gn_.row(a)[b] * scale_[b];
    const float t2 = t * scale_[a];
    return t2 + ddeg_[a];
  }

  /// Closed-form ∂J/∂X[v][j] (exposed for the gradcheck property tests).
  float FeatureGradient(int v, int j) const {
    PEEGA_DCHECK(!objective_only_);
    return gx_(v, j);
  }

  /// Whether (u, v) is an edge of the poisoned graph. Topology engines
  /// only (Config::attack_topology), like FlipEdge.
  bool HasEdge(int u, int v) const {
    const auto& list = neighbors_[static_cast<size_t>(u)];
    return std::binary_search(list.begin(), list.end(), v);
  }

  /// Commits a flip, updating the adjacency/features and queueing the
  /// perturbed rows for the next RefreshScores(). Any number of flips
  /// may be committed between refreshes (PEEGA-Batch commits a batch).
  void FlipEdge(int u, int v);
  void FlipFeature(int v, int j);

  /// Current objective value, composed float-for-float like the tape's
  /// forward pass. Valid after RefreshScores() or RefreshObjective().
  /// O(N + pairs): a refresh reads it only on a full build, near float
  /// overflow and in RefreshObjective() (see the sentinel in the .cc).
  double Objective() const;

  /// Sparse poisoned adjacency: graph::WithFlips of the committed edge
  /// flips on the clean topology — no O(N²) dense rescan, a copy of the
  /// clean adjacency when no edge was flipped, and valid after a
  /// latched refresh failure.
  linalg::SparseMatrix PoisonedAdjacency() const;

  const linalg::Matrix& features() const { return h_[0]; }
  /// Cached surrogate M̂ = A_n^l X̂ (exposed for the delta-update
  /// property tests).
  const linalg::Matrix& surrogate() const { return h_[layers_]; }

  int num_nodes() const { return n_; }
  int num_features() const { return f_; }

 private:
  static constexpr const char* kNoScores =
      " — RefreshObjective() ended the campaign; the engine holds no scores";

  // The objective's two views before their float composition, or what
  // one G_M row recompute moved them by.
  struct ViewTotals {
    double self = 0.0;
    double global = 0.0;
  };

  status::Status Refresh(bool scores);
  // Steps 3-7 of a refresh: the backward caches and the changed rows.
  void RefreshGradients(bool full, const std::vector<std::vector<int>>& d,
                        std::vector<std::vector<int>> e);
  ViewTotals RecomputeGmRow(int r);
  void AccumulatePairTerm(float* grow, const float* xrow, int ref_row,
                          float weight, double* term, float* norm);
  // Brings gnt_ up to G_N^T after a G_N sum that rewrote rows `rows` and
  // columns `cols` of G_N (every entry when `full`); `rows` are marked in
  // row_marks_ and no other row is.
  void TransposeGn(bool full, const std::vector<int>& rows,
                   const std::vector<int>& cols);
  ViewTotals ExactTotals() const;
  double Compose(const ViewTotals& totals) const;
  // Marks row r in row_marks_.
  void Mark(int r) {
    row_marks_[static_cast<size_t>(r) >> 6] |= uint64_t{1} << (r & 63);
  }
  bool Marked(int r) const {
    return (row_marks_[static_cast<size_t>(r) >> 6] >> (r & 63)) & 1;
  }
  // The marked rows, ascending; clears every mark. An N/64-word scan.
  std::vector<int> TakeMarked();
  // The closed neighbourhood of `rows` over A_n's rows, with `extra`
  // added; ascending.
  std::vector<int> Expand(const std::vector<int>& rows,
                          const std::vector<int>& extra);

  // --- immutable configuration -------------------------------------------
  int n_ = 0;
  int f_ = 0;
  int layers_ = 2;
  int p_ = 2;
  float lambda_ = 0.0f;
  bool attack_topology_ = true;
  bool attack_features_ = true;
  bool targeted_ = false;
  // How often the self view sums row v: 1 for every row when untargeted,
  // else v's count in target_nodes. Rows at 0 have no objective terms.
  std::vector<int> target_count_;
  // Targeted self-view rows in caller order: the tape sums the self view
  // over `target_nodes` as given, and double addition only commutes up
  // to rounding, so Objective() must follow the same order.
  std::vector<int> target_order_;
  linalg::Matrix reference_;  // clean A_n^l X
  // The clean adjacency: the global-view pair index (Eq. 6 always sums
  // over the ORIGINAL neighborhoods, even as edges are flipped; pair k
  // is (v, col_idx[k]) for row_ptr[v] <= k < row_ptr[v + 1]) and the
  // base PoisonedAdjacency() toggles the committed edge flips on.
  linalg::SparseMatrix clean_;

  // --- poisoned state -----------------------------------------------------
  std::vector<std::pair<int, int>> edge_flips_;  // committed, in order
  std::vector<float> scale_;                     // s_i = 1/sqrt(deg_i + 1)
  // A_n = D^{-1/2}(A + I)D^{-1/2} in graph::GcnNormalize's CSR layout;
  // rebuilt by the first refresh after an edge flip.
  linalg::SparseMatrix a_n_;
  bool a_n_stale_ = false;

  // --- caches (see class comment) ----------------------------------------
  std::vector<linalg::Matrix> h_;  // H_0..H_layers (H_0 is the poisoned X)
  std::vector<linalg::Matrix> w_;  // W_k = A_n^k G_M, k = 0..layers-1
  std::vector<std::vector<char>> w_nonzero_;  // per W_k: rows with a nonzero
  // Topology state (attack_topology_ only).
  std::vector<std::vector<int>> neighbors_;  // sorted poisoned adjacency
  // Stored entries of H_0..H_{layers-1}, the U_k dots' right factors;
  // re-listed where the refresh rewrote H.
  std::vector<linalg::RowEntries> h_entries_;
  std::vector<linalg::Matrix> u_;  // U_k = W_k H_{layers-1-k}^T
  linalg::Matrix gn_;              // U_0 + U_1 + ... (tape backward order)
  linalg::Matrix gnt_;             // G_N^T, for row-order reads of G_N[v][u]
  std::vector<float> ddeg_;
  linalg::Matrix gx_;              // G_X = A_n W_{layers-1}
  // Per-pair objective terms: double for the objective sum, float for
  // the backward denominators — exactly the tape's split.
  std::vector<double> self_term_;
  std::vector<float> self_norm_;
  std::vector<double> pair_term_;
  std::vector<float> pair_norm_;

  // What the last refresh changed (see the accessors).
  std::vector<int> changed_feature_rows_;
  std::vector<int> changed_edge_rows_;

  // Running sums of the self (count-weighted) and pair terms: the
  // sentinel's overflow threshold. Reset to the exact sums whenever
  // those are taken, so rounding drift never accumulates far.
  ViewTotals running_;

  // Latched failure: set on the first bad refresh, never cleared.
  status::Status status_;
  // Set by RefreshObjective(): the backward caches are stale for good.
  bool objective_only_ = false;

  // One bit per row, all clear between uses: the changed-row sets are
  // marked here and emitted ascending by TakeMarked().
  std::vector<uint64_t> row_marks_;

  // --- pending perturbations since the last refresh -----------------------
  // Lists with repeats; the refresh dedupes them through row_marks_.
  bool fresh_ = true;
  std::vector<int> pending_rows_a_;   // rows whose A_n row changed
  std::vector<int> pending_rows_h0_;  // rows whose feature row changed
  bool any_pending_ = false;
};

}  // namespace repro::core

#endif  // PEEGA_CORE_PEEGA_ENGINE_H_
