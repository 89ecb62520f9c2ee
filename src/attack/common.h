#ifndef PEEGA_ATTACK_COMMON_H_
#define PEEGA_ATTACK_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "attack/attacker.h"
#include "graph/graph.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::attack {

/// Tracks which edges / feature rows an attacker may modify, derived from
/// `AttackOptions::attacker_nodes`.
class AccessControl {
 public:
  AccessControl(int num_nodes, const std::vector<int>& attacker_nodes);

  /// True iff the edge (u, v) may be flipped.
  bool EdgeAllowed(int u, int v) const {
    return controlled_[u] || controlled_[v];
  }
  /// True iff features of node v may be flipped.
  bool FeatureAllowed(int v) const { return controlled_[v]; }
  bool all_nodes() const { return all_nodes_; }

 private:
  std::vector<char> controlled_;
  bool all_nodes_;
};

/// Sparse set of frozen (row, col) coordinates — the greedy loops'
/// "already flipped once" memory. Replaces the dense N x N / N x F
/// freeze matrices that capped attack memory at O(N²): storage is
/// O(flips committed), which the perturbation budget keeps tiny.
///
/// Deterministic by construction (a sorted vector of packed keys, no
/// hashing), so scans that consult it stay bitwise-identical at any
/// thread count. Insert is O(size) — irrelevant at budget-bounded sizes
/// — and Contains is O(log size), off the scans' inner-loop hot path
/// (the exclude test only runs for allowed candidates).
class FlipSet {
 public:
  /// `cols` is the coordinate stride: the node count for edge sets, the
  /// feature dimension for feature sets.
  explicit FlipSet(int cols) : cols_(cols) {}

  bool Contains(int r, int c) const {
    return std::binary_search(keys_.begin(), keys_.end(), Key(r, c));
  }

  void Insert(int r, int c) {
    const int64_t key = Key(r, c);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) keys_.insert(it, key);
  }

  /// Freezes an undirected edge: both (u, v) and (v, u).
  void InsertSymmetric(int u, int v) {
    Insert(u, v);
    Insert(v, u);
  }

  /// Toggles an undirected edge's membership: present → removed,
  /// absent → inserted. Used by samplers (random / DICE) that may
  /// revisit a pair, where the set tracks the delta against the clean
  /// CSR rather than a freeze list.
  void ToggleSymmetric(int u, int v) {
    Toggle(u, v);
    Toggle(v, u);
  }

  size_t size() const { return keys_.size(); }

 private:
  void Toggle(int r, int c) {
    const int64_t key = Key(r, c);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) {
      keys_.erase(it);
    } else {
      keys_.insert(it, key);
    }
  }

  int64_t Key(int r, int c) const {
    return static_cast<int64_t>(r) * cols_ + c;
  }

  int64_t cols_;
  std::vector<int64_t> keys_;  // sorted
};

/// Flips A[u][v] and A[v][u] between 0 and 1 in a dense adjacency.
void FlipEdge(linalg::Matrix* dense_adjacency, int u, int v);

/// Flips X[v][j] between 0 and 1.
void FlipFeature(linalg::Matrix* features, int v, int j);

/// Best allowed edge flip (u < v) of a dense gradient, scored
/// (grad[u][v] + grad[v][u]) * (1 - 2 A[u][v]), skipping the freeze set
/// `exclude`; {-1, -1, -inf} when none is allowed. `TopFlips` with
/// keep = 1: ties go to the lowest (u, v) at any thread count.
struct EdgeCandidate {
  int u = -1;
  int v = -1;
  float score = 0.0f;
};
EdgeCandidate BestEdgeFlip(const linalg::Matrix& grad,
                           const linalg::Matrix& dense_adjacency,
                           const AccessControl& access,
                           const FlipSet* exclude = nullptr);

/// Best allowed feature flip: score = grad[v][j] * (1 - 2 X[v][j]); same
/// contract as `BestEdgeFlip`.
struct FeatureCandidate {
  int node = -1;
  int dim = -1;
  float score = 0.0f;
};
FeatureCandidate BestFeatureFlip(const linalg::Matrix& grad,
                                 const linalg::Matrix& features,
                                 const AccessControl& access,
                                 const FlipSet* exclude = nullptr);

/// Rebuilds a binary symmetric SparseMatrix from a dense 0/1 adjacency.
linalg::SparseMatrix DenseToAdjacency(const linalg::Matrix& dense);

/// A flip and the greedy score of committing it.
struct FlipCandidate {
  Flip flip;
  float score = 0.0f;
};

/// Strict total order of the greedy ranking: score descending, then
/// edge before feature, then lowest (a, b). Being total, it makes the
/// best k of any candidate set unique at any partition or thread count.
bool RanksBefore(const FlipCandidate& lhs, const FlipCandidate& rhs);

/// Shrinks `candidates` to its best `keep` under RanksBefore, in rank
/// order. `keep` <= 0 leaves the list as it is.
void KeepTop(std::vector<FlipCandidate>* candidates, int keep);

namespace internal {

/// Rows per chunk of `TopFlips`; any partition gives the serial result.
constexpr int64_t kScanRowGrain = 32;

/// Adds `candidate` to a chunk's best `cap`; returns the bar for the next.
inline float Admit(const FlipCandidate& candidate, size_t cap,
                   std::vector<FlipCandidate>* top) {
  const auto worst = [&] {
    return std::max_element(top->begin(), top->end(), RanksBefore);
  };
  if (top->size() < cap) top->push_back(candidate);
  else *worst() = candidate;
  return top->size() == cap ? worst()->score
                            : -std::numeric_limits<float>::infinity();
}

}  // namespace internal

/// The greedy candidate scan: scores each allowed flip not in `exclude` —
/// edges a < b < rows or, if `is_feature`, bits (a < rows, b < cols) —
/// with `score(a, b)` and returns the best `keep` under RanksBefore, in
/// rank order; `keep` <= 0 returns all, in row-major order, for Gumbel
/// noise drawn in that order. NaN and -inf scores are never returned.
/// Row chunks keep their best `keep` and take only a candidate beating
/// the worst kept (a tie comes later, so ranks after it), then merge in
/// order: the result is the serial scan's at any thread count. keep = 1
/// is a plain argmax: one float compare per candidate.
template <bool is_feature, typename ScoreFn>
std::vector<FlipCandidate> TopFlips(int rows, int cols,
                                    const AccessControl& access,
                                    const FlipSet* exclude, int keep,
                                    const ScoreFn& score) {
  const obs::TraceSpan span(is_feature ? "attack.best_feature_flip"
                                       : "attack.best_edge_flip");
  static obs::Counter* const scans[2] = {
      obs::GetCounter("attack.edge_scans"),
      obs::GetCounter("attack.feature_scans")};
  static obs::Counter* const scanned[2] = {
      obs::GetCounter("attack.edges_scanned"),
      obs::GetCounter("attack.features_scanned")};
  scans[is_feature]->Add(1);
  const size_t cap = keep > 0 ? static_cast<size_t>(keep) : SIZE_MAX;
  std::vector<std::vector<FlipCandidate>> per_chunk(static_cast<size_t>(
      parallel::NumChunks(rows, internal::kScanRowGrain)));
  parallel::ParallelForChunked(
      0, rows, internal::kScanRowGrain,
      [&](int64_t a0, int64_t a1, int64_t chunk) {
        auto& top = per_chunk[static_cast<size_t>(chunk)];
        uint64_t considered = 0;  // one atomic add per chunk
        const auto scan = [&](const auto& admit) {
          float bar = -std::numeric_limits<float>::infinity();
          for (int a = static_cast<int>(a0); a < static_cast<int>(a1); ++a) {
            if (is_feature && !access.FeatureAllowed(a)) continue;
            for (int b = is_feature ? 0 : a + 1; b < cols; ++b) {
              if (!is_feature && !access.EdgeAllowed(a, b)) continue;
              if (exclude != nullptr && exclude->Contains(a, b)) continue;
              ++considered;
              const float s = score(a, b);
              if (s > bar) bar = admit(FlipCandidate{{is_feature, a, b}, s});
            }
          }
        };
        // Locals, not `top`: a store or call in the loop blocks hoisting.
        FlipCandidate best;
        if (keep == 1) scan([&](auto c) { return (best = c).score; });
        else scan([&](auto c) { return internal::Admit(c, cap, &top); });
        if (best.flip.a >= 0) top.push_back(best);
        scanned[is_feature]->Add(considered);
      });
  std::vector<FlipCandidate> merged;
  for (const auto& chunk : per_chunk) {
    merged.insert(merged.end(), chunk.begin(), chunk.end());
  }
  KeepTop(&merged, keep);
  return merged;
}

}  // namespace repro::attack

#endif  // PEEGA_ATTACK_COMMON_H_
