#ifndef PEEGA_ATTACK_COMMON_H_
#define PEEGA_ATTACK_COMMON_H_

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/attacker.h"
#include "debug/check.h"
#include "debug/numerics.h"
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

  /// True iff the attacker controls node v.
  bool Controls(int v) const { return controlled_[v]; }
  /// True iff the edge (u, v) may be flipped.
  bool EdgeAllowed(int u, int v) const { return Controls(u) || Controls(v); }
  /// True iff features of node v may be flipped.
  bool FeatureAllowed(int v) const { return Controls(v); }
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
/// thread count. Insert is O(size) — irrelevant at budget-bounded sizes.
/// Scans walk a row's frozen columns with a `RowCursor` (one
/// lower_bound per row) instead of calling Contains per candidate.
class FlipSet {
 public:
  /// `cols` is the coordinate stride: the node count for edge sets, the
  /// feature dimension for feature sets.
  explicit FlipSet(int cols) : cols_(cols) {}

  /// The frozen columns of one row, ascending, queried in step with a
  /// scan's ascending column loop: O(1) amortized per query. A default
  /// cursor is an empty row.
  class RowCursor {
   public:
    RowCursor() = default;
    /// First frozen column >= c, or `end` (the column count) when the
    /// row has none left. Queries must not decrease c.
    int NextFrozen(int c, int end) {
      while (next_ != last_ && *next_ < base_ + c) ++next_;
      // Keys past the row's last column belong to later rows.
      return next_ == last_ ? end
                            : static_cast<int>(std::min<int64_t>(
                                  *next_ - base_, end));
    }

   private:
    friend class FlipSet;
    const int64_t* next_ = nullptr;
    const int64_t* last_ = nullptr;
    int64_t base_ = 0;
  };

  RowCursor Row(int r) const {
    RowCursor cursor;
    cursor.base_ = Key(r, 0);
    cursor.next_ = keys_.data() + (std::lower_bound(keys_.begin(), keys_.end(),
                                                    cursor.base_) -
                                   keys_.begin());
    cursor.last_ = keys_.data() + keys_.size();
    return cursor;
  }

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

 private:
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

/// Rebuilds a binary symmetric SparseMatrix from a dense 0/1 adjacency.
linalg::SparseMatrix DenseToAdjacency(const linalg::Matrix& dense);

/// Commits distinct edge flips to the clean graph `g` through
/// graph::WithFlips: sets `result->poisoned`, and records each pair as a
/// Flip (a < b) in `result->flips` and in `edge_modifications`.
void CommitEdgeFlips(const graph::Graph& g,
                     const std::vector<std::pair<int, int>>& pairs,
                     AttackResult* result);

/// A flip and the greedy score of committing it.
struct FlipCandidate {
  Flip flip;
  float score = 0.0f;
};

/// Strict total order of the greedy ranking: score descending, then
/// edge before feature, then lowest (a, b). Being total, it makes the
/// best k of any candidate set unique at any partition or thread count.
inline bool RanksBefore(const FlipCandidate& lhs, const FlipCandidate& rhs) {
  if (lhs.score != rhs.score) return lhs.score > rhs.score;
  return std::tie(lhs.flip.is_feature, lhs.flip.a, lhs.flip.b) <
         std::tie(rhs.flip.is_feature, rhs.flip.a, rhs.flip.b);
}

/// Shrinks `candidates` to its best `keep` under RanksBefore, in rank
/// order. `keep` <= 0 leaves the list as it is.
void KeepTop(std::vector<FlipCandidate>* candidates, int keep);

namespace internal {

/// Rows per chunk of a scan; any partition gives the serial result. A
/// chunk's clean edge rows merge a changed column as one run of at most
/// this many scores.
constexpr int64_t kScanRowGrain = 32;

/// Slots an edge row keeps at least (see ScanCache): d = max(keep, 8).
/// At keep 1 a `peega-cora` campaign falls back to whole-row rescans 37k
/// times with one slot, 1.1k times with 8 and 458 times with 16. At
/// keep 16 (PEEGA-Batch on `gnat-cora`'s n = 1000 graph) nearly every
/// row is rescanned anyway: d = 32 ends every fallback but scores only
/// 3% fewer candidates and makes the scan a third slower than d = keep
/// (EXPERIMENTS.md, "Row depth at keep > 1").
constexpr int kEdgeRowDepth = 8;

/// Slots a rescan keeps in a local heap before copying them out; deeper
/// rows (keep > 16) use their slots directly.
constexpr int kLocalRowDepth = 16;

/// Calls `visit(b0, b1)` for every run [b0, b1) of candidate columns of
/// row `a`, in ascending order (b > a for edges): allowed by `access`,
/// not frozen in `frozen`. A row the attacker controls allows every
/// column, so its runs end only at frozen columns; in another edge row
/// each allowed column is a run of its own.
template <bool is_feature, typename Visit>
void ForEachCandidateRun(int a, int cols, const AccessControl& access,
                         FlipSet::RowCursor frozen, const Visit& visit) {
  const bool whole_row = access.Controls(a);
  if (is_feature && !whole_row) return;
  // The outer ++b steps over the frozen column each inner run stops at.
  for (int b = is_feature ? 0 : a + 1; b < cols; ++b) {
    const int stop = frozen.NextFrozen(b, cols);
    if (whole_row) {
      if (b < stop) visit(b, stop);
      b = stop;
    }
    for (; b < stop; ++b) {
      if (access.Controls(b)) visit(b, b + 1);
    }
  }
}

/// Adds `item` to the best `cap` of a list when it ranks among them. The
/// list slots[0, *count) is a heap under `ranks_before` whose front is
/// the worst kept. NaN and -inf scores are never kept.
template <typename T, typename RanksBeforeFn>
void Admit(T* slots, int* count, int cap, const T& item,
           const RanksBeforeFn& ranks_before) {
  if (*count < cap) {
    if (!(item.score > -std::numeric_limits<float>::infinity())) return;
    slots[(*count)++] = item;
    std::push_heap(slots, slots + *count, ranks_before);
  } else if (ranks_before(item, slots[0])) {
    std::pop_heap(slots, slots + cap, ranks_before);
    slots[cap - 1] = item;
    std::push_heap(slots, slots + cap, ranks_before);
  }
}

/// A scan's scores in blocks. Row(a, b0, b1, out) writes score(a, b) for
/// b in [b0, b1) to out[b - b0]; an edge scorer also has Column(b, a0,
/// a1, out), which writes score(a, b) for a in [a0, a1) to out[a - a0].
/// operator()(a, b) is the scalar score every block equals bit for bit.
template <typename Scorer>
concept BlockScorer = requires(const Scorer& scorer, float* out) {
  scorer.Row(0, 0, 0, out);
  { scorer(0, 0) } -> std::convertible_to<float>;
};

/// The block scorer of a per-candidate score(a, b): each block is a loop
/// over it.
template <typename ScoreFn>
struct LoopScorer {
  const ScoreFn& score;

  float operator()(int a, int b) const { return score(a, b); }
  void Row(int a, int b0, int b1, float* out) const {
    for (int b = b0; b < b1; ++b) out[b - b0] = score(a, b);
  }
  void Column(int b, int a0, int a1, float* out) const {
    for (int a = a0; a < a1; ++a) out[a - a0] = score(a, b);
  }
};

}  // namespace internal

/// The greedy candidate scan, with memory across scans. It scores each
/// allowed flip not in `exclude` — edges a < b < rows or, if
/// `is_feature`, bits (a < rows, b < cols) — and returns the best `keep`
/// under RanksBefore, in rank order. NaN and -inf scores are never
/// returned.
///
/// Between scans the cache keeps slots per row, and a scan rescores
/// only what `Invalidate` named since the last one:
///  - a changed row is rescanned whole;
///  - a clean feature row keeps its best `keep`, its only slots;
///  - a clean edge row a keeps d = max(keep, kEdgeRowDepth) slots and a
///    bar: no candidate outside the slots ranks before the bar. A whole
///    rescan fills the slots with the row's best d and sets the bar to
///    the worst of them, or marks the row complete when it has fewer
///    candidates. A merge drops the slots in changed columns b > a,
///    rescores those columns and admits them in ascending b; an entry
///    it evicts, or rescores and does not admit, becomes the bar if it
///    ranks before it. The row is exact if it is complete or at least
///    `keep` slots rank at or before the bar, and returns those slots.
///    Otherwise it is rescanned whole (a fallback, counted in
///    `attack.row_fallbacks`).
/// RanksBefore is a strict total order, so the best of the row bests is
/// the full scan's at any partition and thread count. The first scan
/// rescans every row.
///
/// Scores come in blocks (internal::BlockScorer): a rescan scores its
/// row in one block, and a chunk of clean edge rows merges each changed
/// column b as one column run over its rows a < b. Every row still
/// admits its changed columns in ascending b. A per-row gate skips a
/// merged candidate that can change neither the slots nor the bar: the
/// gate is -inf while the row has a free slot, else the lower score of
/// the worst slot and the bar, and a candidate passes when its score is
/// >= the gate, so ties still reach the row's order and NaN never does.
/// `attack.edges_scanned` / `attack.features_scanned` count the allowed,
/// unfrozen candidates a scan read, gated or not.
///
/// keep <= 0 returns every candidate in row-major order, for Gumbel
/// noise drawn in that order. That needs every score, so it keeps no
/// state and always scans in full.
///
/// In a debug-numerics build every scan that reused rows also runs the
/// full scan over the scalar scores, one call per candidate, and
/// PEEGA_CHECKs that both lists are equal.
template <bool is_feature>
class ScanCache {
 public:
  ScanCache(int rows, int cols, int keep)
      : rows_(rows),
        cols_(cols),
        keep_(std::max(keep, 0)),
        row_keep_(std::min(keep_, cols)),
        depth_(is_feature || keep_ == 0
                   ? row_keep_
                   : std::min(std::max(keep_, internal::kEdgeRowDepth), cols)),
        best_(static_cast<size_t>(rows) * static_cast<size_t>(depth_)),
        count_(keep_ > 0 ? static_cast<size_t>(rows) : 0),
        bars_(!is_feature && keep_ > 0 ? static_cast<size_t>(rows) : 0),
        changed_(static_cast<size_t>(rows), 0) {}

  /// Names the rows whose candidates may have changed score or freeze
  /// state since the last scan. For edges, a pair may have changed only
  /// if an endpoint is named: `rows` are changed rows AND columns. A
  /// superset is safe; a missing row makes the next scan wrong. Costs
  /// O(|rows|), whatever the row count.
  void Invalidate(const std::vector<int>& rows) {
    for (const int r : rows) {
      char& changed = changed_[static_cast<size_t>(r)];
      if (!changed) changed_rows_.push_back(r);
      changed = 1;
    }
  }

  /// `score` is an internal::BlockScorer, or a per-candidate
  /// float(int a, int b) that the scan runs as an internal::LoopScorer.
  template <typename Scorer>
  std::vector<FlipCandidate> Scan(const AccessControl& access,
                                  const FlipSet* exclude,
                                  const Scorer& score);

 private:
  struct Entry {
    int col = -1;
    float score = 0.0f;
  };
  // RanksBefore within one row.
  static bool RowRanksBefore(const Entry& lhs, const Entry& rhs) {
    return lhs.score != rhs.score ? lhs.score > rhs.score : lhs.col < rhs.col;
  }
  // The bar of a complete row: every keepable entry ranks before it.
  static constexpr Entry kComplete{std::numeric_limits<int>::max(),
                                   -std::numeric_limits<float>::infinity()};

  Entry* Slots(int a) {
    return best_.data() + static_cast<size_t>(a) * static_cast<size_t>(depth_);
  }

  template <typename Scorer>
  std::vector<FlipCandidate> ScanBlocks(const AccessControl& access,
                                        const FlipSet* exclude,
                                        const Scorer& score);

  // Rescans row `a` whole into its slots and resets its bar, reading the
  // score of column b at scores[b - first]; returns the candidates
  // scored.
  uint64_t RescanRow(int a, const AccessControl& access,
                     FlipSet::RowCursor frozen, const float* scores,
                     int first) {
    Entry* slots = Slots(a);
    int& count = count_[static_cast<size_t>(a)];
    count = 0;
    uint64_t scored = 0;
    float bar = -std::numeric_limits<float>::infinity();
    // Columns ascend, so a tie with the bar ranks after it.
    const auto scan = [&](const auto& admit) {
      internal::ForEachCandidateRun<is_feature>(
          a, cols_, access, frozen, [&](int b0, int b1) {
            scored += static_cast<uint64_t>(b1 - b0);
            for (int b = b0; b < b1; ++b) {
              const float s = scores[b - first];
              if (s > bar) bar = admit(Entry{b, s});
            }
          });
    };
    const auto scan_into = [&](Entry* heap) {
      scan([&](const Entry& e) {
        internal::Admit(heap, &count, depth_, e, RowRanksBefore);
        return count == depth_ ? heap[0].score : bar;
      });
    };
    // Locals, not `slots`, where they fit: a store through `slots` in
    // the loop blocks hoisting the score's loads.
    if (depth_ == 1) {
      Entry top;
      scan([&](const Entry& e) { return (top = e).score; });
      if (top.col >= 0) slots[count++] = top;
    } else if (depth_ <= internal::kLocalRowDepth) {
      Entry heap[internal::kLocalRowDepth];
      scan_into(heap);
      std::copy(heap, heap + count, slots);
    } else {
      scan_into(slots);
    }
    if (!bars_.empty()) {
      bars_[static_cast<size_t>(a)] = count == depth_ ? slots[0] : kComplete;
    }
    return scored;
  }

  // A merge of clean edge row `a`, in three steps. BeginMerge drops its
  // slots in changed columns; a row that lost none is still a heap.
  // Merge admits one rescored changed column that passed the row's
  // Gate, raising the bar to each entry that leaves the slots or stays
  // out and ranks before it. Every other candidate kept its score, so
  // none outside the slots ranks before the bar. MergeExact then says
  // whether the row is exact: complete, or with `row_keep_` slots at or
  // before the bar. If not, it must be rescanned whole.
  void BeginMerge(int a) {
    Entry* slots = Slots(a);
    int& count = count_[static_cast<size_t>(a)];
    count = static_cast<int>(
        std::remove_if(slots, slots + count,
                       [&](const Entry& e) {
                         return changed_[static_cast<size_t>(e.col)] != 0;
                       }) -
        slots);
  }

  // Below this score a merged candidate ranks before neither the worst
  // slot of a full row nor the bar, and changes nothing.
  float Gate(int a) {
    if (count_[static_cast<size_t>(a)] < depth_) {
      return -std::numeric_limits<float>::infinity();
    }
    return std::min(Slots(a)[0].score, bars_[static_cast<size_t>(a)].score);
  }

  void Merge(int a, const Entry& e) {
    // NaN and -inf are never kept, so they bound nothing.
    if (!(e.score > -std::numeric_limits<float>::infinity())) return;
    Entry* slots = Slots(a);
    int& count = count_[static_cast<size_t>(a)];
    Entry& bar = bars_[static_cast<size_t>(a)];
    const auto raise_bar = [&](const Entry& out) {
      if (RowRanksBefore(out, bar)) bar = out;
    };
    if (count < depth_) {
      // The row keeps a heap only when full, where its front bounds it.
      slots[count++] = e;
      if (count == depth_) std::make_heap(slots, slots + count, RowRanksBefore);
    } else if (RowRanksBefore(e, slots[0])) {
      raise_bar(slots[0]);
      std::pop_heap(slots, slots + count, RowRanksBefore);
      slots[count - 1] = e;
      std::push_heap(slots, slots + count, RowRanksBefore);
    } else {
      raise_bar(e);
    }
  }

  // Merges the clean edge rows a of chunk [a0, a1), those with
  // rescan[a - a0] == 0, with the changed columns, and flags in `rescan`
  // the rows that must fall back; returns how many. Adds the candidates
  // merged, gated or not, to *scored: each row's allowed changed columns
  // b > a, counted from `allowed_after` (see ScanBlocks), less its frozen
  // ones.
  template <typename Scorer>
  uint64_t MergeChunk(int a0, int a1, const AccessControl& access,
                      const FlipSet* exclude, const Scorer& score,
                      const std::vector<int>& allowed_after, char* rescan,
                      uint64_t* scored) {
    const auto at = [a0](int a) { return static_cast<size_t>(a - a0); };
    thread_local std::vector<float> gate;
    thread_local std::vector<FlipSet::RowCursor> cursors;
    thread_local std::vector<float> run;
    // A NaN gate passes nothing: the rows rescanned whole keep it.
    gate.assign(at(a1), std::numeric_limits<float>::quiet_NaN());
    cursors.resize(at(a1));
    // The clean rows lie in [lo, hi).
    int lo = a1;
    int hi = a0;
    for (int a = a0; a < a1; ++a) {
      if (rescan[at(a)]) continue;
      BeginMerge(a);
      gate[at(a)] = Gate(a);
      cursors[at(a)] =
          exclude != nullptr ? exclude->Row(a) : FlipSet::RowCursor();
      lo = std::min(lo, a);
      hi = a + 1;
      const auto past = static_cast<size_t>(
          std::upper_bound(changed_rows_.begin(), changed_rows_.end(), a) -
          changed_rows_.begin());
      uint64_t candidates =
          access.Controls(a) ? changed_rows_.size() - past
                             : static_cast<uint64_t>(allowed_after[past]);
      FlipSet::RowCursor walk = cursors[at(a)];
      for (int c = walk.NextFrozen(a + 1, cols_); c < cols_;
           c = walk.NextFrozen(c + 1, cols_)) {
        candidates -=
            changed_[static_cast<size_t>(c)] && access.EdgeAllowed(a, c) ? 1
                                                                         : 0;
      }
      *scored += candidates;
    }
    if (lo >= hi) return 0;
    // Column b's run covers the clean rows a < b.
    run.resize(at(a1));
    for (auto it = std::upper_bound(changed_rows_.begin(),
                                    changed_rows_.end(), lo);
         it != changed_rows_.end(); ++it) {
      const int b = *it;
      const int end = std::min(hi, b);
      score.Column(b, lo, end, run.data());
      for (int a = lo; a < end; ++a) {
        const float s = run[static_cast<size_t>(a - lo)];
        // A tie with the gate still reaches RowRanksBefore; NaN fails.
        if (!(s >= gate[at(a)]) || !access.EdgeAllowed(a, b) ||
            cursors[at(a)].NextFrozen(b, cols_) == b) {
          continue;
        }
        Merge(a, Entry{b, s});
        gate[at(a)] = Gate(a);
      }
    }
    uint64_t fallbacks = 0;
    for (int a = lo; a < hi; ++a) {
      if (rescan[at(a)] || MergeExact(a)) continue;
      rescan[at(a)] = 1;
      ++fallbacks;
    }
    return fallbacks;
  }

  bool MergeExact(int a) {
    const Entry bar = bars_[static_cast<size_t>(a)];
    if (bar.col == kComplete.col) return true;
    const Entry* slots = Slots(a);
    int certain = 0;
    for (int i = 0; i < count_[static_cast<size_t>(a)]; ++i) {
      certain += RowRanksBefore(bar, slots[i]) ? 0 : 1;
    }
    return certain >= row_keep_;
  }

  int rows_;
  int cols_;
  int keep_;
  // A row has at most cols_ candidates, so it keeps at most that many.
  int row_keep_;
  // Slots per row: row_keep_ for feature rows, d for edge rows.
  int depth_;
  // depth_ slots per row, count_ of them used; a heap under
  // RowRanksBefore whenever all are (a merge appends to a row with free
  // slots).
  std::vector<Entry> best_;
  std::vector<int> count_;
  // Per edge row: the bar, kComplete when the slots hold every candidate.
  std::vector<Entry> bars_;
  // The rows named since the last scan, once each, and their flags.
  std::vector<int> changed_rows_;
  std::vector<char> changed_;
  bool all_changed_ = true;
};

template <bool is_feature>
template <typename Scorer>
std::vector<FlipCandidate> ScanCache<is_feature>::Scan(
    const AccessControl& access, const FlipSet* exclude,
    const Scorer& score) {
  if constexpr (!internal::BlockScorer<Scorer>) {
    return Scan(access, exclude, internal::LoopScorer<Scorer>{score});
  } else {
    const bool incremental = keep_ > 0 && !all_changed_;
    std::vector<FlipCandidate> merged = ScanBlocks(access, exclude, score);
    if constexpr (debug::NumericsGuardEnabled()) {
      if (incremental) {
        // The same list, bit for bit, as a scan with every row changed
        // that calls the scalar score once per candidate.
        const std::vector<FlipCandidate> full =
            ScanCache(rows_, cols_, keep_)
                .ScanBlocks(access, exclude,
                            internal::LoopScorer<Scorer>{score});
        PEEGA_CHECK_EQ(merged.size(), full.size()) << " cached vs full scan";
        for (size_t i = 0; i < merged.size(); ++i) {
          PEEGA_CHECK(merged[i].flip == full[i].flip &&
                      std::bit_cast<uint32_t>(merged[i].score) ==
                          std::bit_cast<uint32_t>(full[i].score))
              << " cached vs full scan at rank " << i << ": ("
              << merged[i].flip.a << ", " << merged[i].flip.b << ") "
              << merged[i].score << " vs (" << full[i].flip.a << ", "
              << full[i].flip.b << ") " << full[i].score;
        }
      }
    }
    return merged;
  }
}

template <bool is_feature>
template <typename Scorer>
std::vector<FlipCandidate> ScanCache<is_feature>::ScanBlocks(
    const AccessControl& access, const FlipSet* exclude,
    const Scorer& score) {
  const obs::TraceSpan span(is_feature ? "attack.best_feature_flip"
                                       : "attack.best_edge_flip");
  static obs::Counter* const scans[2] = {
      obs::GetCounter("attack.edge_scans"),
      obs::GetCounter("attack.feature_scans")};
  static obs::Counter* const scanned[2] = {
      obs::GetCounter("attack.edges_scanned"),
      obs::GetCounter("attack.features_scanned")};
  static obs::Counter* const row_fallbacks =
      obs::GetCounter("attack.row_fallbacks");
  scans[is_feature]->Add(1);
  // A clean edge row merges its changed columns: the changed nodes,
  // ascending.
  const bool merge = !is_feature && keep_ > 0 && !all_changed_;
  // allowed_after[k]: the changed nodes from the k-th on the attacker
  // controls.
  std::vector<int> allowed_after;
  if (merge) {
    std::sort(changed_rows_.begin(), changed_rows_.end());
    allowed_after.resize(changed_rows_.size() + 1, 0);
    for (size_t k = changed_rows_.size(); k-- > 0;) {
      allowed_after[k] =
          allowed_after[k + 1] + (access.Controls(changed_rows_[k]) ? 1 : 0);
    }
  }
  std::vector<std::vector<FlipCandidate>> per_chunk(static_cast<size_t>(
      parallel::NumChunks(rows_, internal::kScanRowGrain)));
  parallel::ParallelForChunked(
      0, rows_, internal::kScanRowGrain,
      [&](int64_t c0, int64_t c1, int64_t chunk) {
        const int a0 = static_cast<int>(c0);
        const int a1 = static_cast<int>(c1);
        const auto at = [a0](int a) { return static_cast<size_t>(a - a0); };
        auto& top = per_chunk[static_cast<size_t>(chunk)];
        uint64_t scored = 0;  // one atomic add per chunk
        uint64_t fallbacks = 0;
        const auto frozen = [&](int a) {
          return exclude != nullptr ? exclude->Row(a) : FlipSet::RowCursor();
        };
        // One row's scores, at columns [first, cols_).
        thread_local std::vector<float> row_scores;
        row_scores.resize(static_cast<size_t>(cols_));
        const auto score_row = [&](int a) {
          const int first = is_feature ? 0 : a + 1;
          // A feature row the attacker does not control has no candidates.
          if (!is_feature || access.FeatureAllowed(a)) {
            score.Row(a, first, cols_, row_scores.data());
          }
          return first;
        };
        if (keep_ == 0) {
          for (int a = a0; a < a1; ++a) {
            const int first = score_row(a);
            internal::ForEachCandidateRun<is_feature>(
                a, cols_, access, frozen(a), [&](int b0, int b1) {
                  scored += static_cast<uint64_t>(b1 - b0);
                  for (int b = b0; b < b1; ++b) {
                    const float s = row_scores[static_cast<size_t>(b - first)];
                    if (s > -std::numeric_limits<float>::infinity()) {
                      top.push_back(FlipCandidate{{is_feature, a, b}, s});
                    }
                  }
                });
          }
          scanned[is_feature]->Add(scored);
          return;
        }
        // Rows rescanned whole: the changed ones, then the clean edge
        // rows whose merge is not exact.
        thread_local std::vector<char> rescan;
        rescan.resize(static_cast<size_t>(a1 - a0));
        for (int a = a0; a < a1; ++a) {
          rescan[at(a)] = all_changed_ || changed_[static_cast<size_t>(a)];
        }
        if constexpr (!is_feature) {
          if (merge) {
            fallbacks = MergeChunk(a0, a1, access, exclude, score,
                                   allowed_after, rescan.data(), &scored);
          }
        }
        int kept = 0;
        for (int a = a0; a < a1; ++a) {
          if (rescan[at(a)]) {
            const int first = score_row(a);
            scored += RescanRow(a, access, frozen(a), row_scores.data(), first);
          }
          const Entry* slots = Slots(a);
          const int count = count_[static_cast<size_t>(a)];
          const Entry bar =
              bars_.empty() ? kComplete : bars_[static_cast<size_t>(a)];
          // Grows only to the candidates the chunk holds, not to keep_.
          const auto need = static_cast<size_t>(std::min(keep_, kept + count));
          if (top.size() < need) top.resize(need);
          for (int i = 0; i < count; ++i) {
            if (RowRanksBefore(bar, slots[i])) continue;
            internal::Admit(top.data(), &kept, keep_,
                            FlipCandidate{{is_feature, a, slots[i].col},
                                          slots[i].score},
                            RanksBefore);
          }
        }
        top.resize(static_cast<size_t>(kept));
        scanned[is_feature]->Add(scored);
        if (fallbacks > 0) row_fallbacks->Add(fallbacks);
      });
  all_changed_ = false;
  for (const int r : changed_rows_) changed_[static_cast<size_t>(r)] = 0;
  changed_rows_.clear();
  std::vector<FlipCandidate> merged;
  for (const auto& chunk : per_chunk) {
    merged.insert(merged.end(), chunk.begin(), chunk.end());
  }
  KeepTop(&merged, keep_);
  return merged;
}

/// One greedy scan with no memory: a fresh ScanCache, every row changed.
/// `keep` <= 0 returns all candidates in row-major order.
template <bool is_feature, typename ScoreFn>
std::vector<FlipCandidate> TopFlips(int rows, int cols,
                                    const AccessControl& access,
                                    const FlipSet* exclude, int keep,
                                    const ScoreFn& score) {
  return ScanCache<is_feature>(rows, cols, keep)
      .Scan(access, exclude, score);
}

}  // namespace repro::attack

#endif  // PEEGA_ATTACK_COMMON_H_
