#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "attack/common.h"
#include "attack/gf_attack.h"
#include "attack/metattack.h"
#include "attack/pgd.h"
#include "attack/random_attack.h"
#include "debug/numerics.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "linalg/ops.h"
#include "nn/gcn.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace repro::attack {
namespace {

using graph::Graph;
using linalg::Matrix;
using linalg::Rng;

Graph SmallGraph(uint64_t seed = 1, double scale = 0.3) {
  Rng rng(seed);
  return graph::MakeCoraLike(&rng, scale);
}

[[maybe_unused]] int TotalModifications(const Graph& clean,
                                        const AttackResult& result) {
  return graph::ComputeEdgeDiff(clean, result.poisoned).total() / 1 +
         static_cast<int>(
             graph::FeatureDiffCount(clean, result.poisoned));
}

double GcnAccuracyOn(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  nn::Gcn gcn(g.features.cols(), g.num_classes, nn::Gcn::Options(), &rng);
  nn::TrainOptions options;
  return nn::TrainNodeClassifier(&gcn, g, options, &rng).test_accuracy;
}

TEST(CommonTest, ComputeBudget) {
  const Graph g = SmallGraph();
  EXPECT_EQ(ComputeBudget(g, 0.0), 0);
  EXPECT_EQ(ComputeBudget(g, 0.1),
            static_cast<int>(0.1 * g.NumEdges()));
  EXPECT_GE(ComputeBudget(g, 1e-9), 1);  // at least one when positive
}

TEST(CommonTest, AccessControlAllNodes) {
  const AccessControl access(5, {});
  EXPECT_TRUE(access.all_nodes());
  EXPECT_TRUE(access.EdgeAllowed(0, 4));
  EXPECT_TRUE(access.FeatureAllowed(3));
}

TEST(CommonTest, AccessControlSubset) {
  const AccessControl access(5, {1, 2});
  EXPECT_FALSE(access.all_nodes());
  EXPECT_TRUE(access.EdgeAllowed(1, 4));   // one controlled endpoint
  EXPECT_TRUE(access.EdgeAllowed(0, 2));
  EXPECT_FALSE(access.EdgeAllowed(0, 4));  // neither controlled
  EXPECT_TRUE(access.FeatureAllowed(2));
  EXPECT_FALSE(access.FeatureAllowed(0));
}

TEST(CommonTest, FlipEdgeIsSymmetricToggle) {
  Matrix a(3, 3);
  FlipEdge(&a, 0, 2);
  EXPECT_FLOAT_EQ(a(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(a(2, 0), 1.0f);
  FlipEdge(&a, 2, 0);
  EXPECT_FLOAT_EQ(a(0, 2), 0.0f);
}

// The greedy flip scores S = grad ⊙ (1 - 2A): an edge sums both
// directions of the gradient.
auto EdgeFlipScore(const Matrix& grad, const Matrix& a) {
  return [&grad, &a](int u, int v) {
    return (1.0f - 2.0f * a(u, v)) * (grad(u, v) + grad(v, u));
  };
}
auto FeatureFlipScore(const Matrix& grad, const Matrix& x) {
  return [&grad, &x](int v, int j) {
    return (1.0f - 2.0f * x(v, j)) * grad(v, j);
  };
}

TEST(CommonTest, BestEdgeFlipPrefersHighScore) {
  // Gradient favors adding (0, 2) (both directions contribute).
  Matrix a(3, 3);
  a(0, 1) = a(1, 0) = 1.0f;  // existing edge
  Matrix grad(3, 3);
  grad(0, 2) = 5.0f;
  grad(2, 0) = 1.0f;
  grad(0, 1) = -10.0f;  // deleting (0,1) scores +20 > 6
  grad(1, 0) = -10.0f;
  const AccessControl access(3, {});
  const std::vector<FlipCandidate> best = TopFlips</*is_feature=*/false>(
      3, 3, access, nullptr, /*keep=*/1, EdgeFlipScore(grad, a));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].flip.a, 0);
  EXPECT_EQ(best[0].flip.b, 1);
  EXPECT_FLOAT_EQ(best[0].score, 20.0f);
}

TEST(CommonTest, BestEdgeFlipRespectsAccess) {
  Matrix a(3, 3);
  Matrix grad(3, 3);
  grad(0, 2) = 100.0f;
  grad(1, 2) = 1.0f;
  const AccessControl access(3, {1});
  const std::vector<FlipCandidate> best = TopFlips</*is_feature=*/false>(
      3, 3, access, nullptr, /*keep=*/1, EdgeFlipScore(grad, a));
  ASSERT_EQ(best.size(), 1u);
  // (0,2) not allowed: neither endpoint controlled.
  EXPECT_EQ(best[0].flip.a, 1);
  EXPECT_EQ(best[0].flip.b, 2);
}

TEST(CommonTest, BestFeatureFlipDirectionality) {
  Matrix x(2, 2);
  x(0, 0) = 1.0f;
  Matrix grad(2, 2);
  grad(0, 0) = -3.0f;  // flipping 1 -> 0 gives score +3
  grad(1, 1) = 2.0f;   // flipping 0 -> 1 gives score +2
  const AccessControl access(2, {});
  const std::vector<FlipCandidate> best = TopFlips</*is_feature=*/true>(
      2, 2, access, nullptr, /*keep=*/1, FeatureFlipScore(grad, x));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].flip.a, 0);
  EXPECT_EQ(best[0].flip.b, 0);
  EXPECT_FLOAT_EQ(best[0].score, 3.0f);
}

TEST(CommonTest, DenseToAdjacencyDropsDiagonal) {
  Matrix a(2, 2, 1.0f);
  const auto sparse = DenseToAdjacency(a);
  EXPECT_EQ(sparse.nnz(), 2);
  EXPECT_FLOAT_EQ(sparse.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(sparse.At(0, 1), 1.0f);
}

// ---------------------------------------------------------------------------
// ScanCache: the incremental scan must return the full scan's list.
// ---------------------------------------------------------------------------

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { parallel::SetNumThreads(n); }
  ~ScopedThreads() { parallel::SetNumThreads(0); }
};

// Scores drawn from a coarse grid (many ties), with NaN, -inf and +inf.
float RandomScore(Rng* rng) {
  const int pick = static_cast<int>(rng->UniformInt(0, 39));
  if (pick == 0) return std::numeric_limits<float>::quiet_NaN();
  if (pick == 1) return -std::numeric_limits<float>::infinity();
  if (pick == 2) return std::numeric_limits<float>::infinity();
  return 0.5f * static_cast<float>(rng->UniformInt(-6, 6));
}

bool SameCandidates(const std::vector<FlipCandidate>& lhs,
                    const std::vector<FlipCandidate>& rhs) {
  if (lhs.size() != rhs.size()) return false;
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i].flip != rhs[i].flip ||
        std::bit_cast<uint32_t>(lhs[i].score) !=
            std::bit_cast<uint32_t>(rhs[i].score)) {
      return false;
    }
  }
  return true;
}

// Brute force: every allowed, unfrozen candidate that is not NaN or -inf,
// in row-major order, then cut to the best `keep`.
template <bool is_feature>
std::vector<FlipCandidate> ReferenceTop(const Matrix& scores,
                                        const AccessControl& access,
                                        const FlipSet& frozen, int keep) {
  std::vector<FlipCandidate> all;
  for (int a = 0; a < scores.rows(); ++a) {
    for (int b = is_feature ? 0 : a + 1; b < scores.cols(); ++b) {
      const bool allowed =
          is_feature ? access.FeatureAllowed(a) : access.EdgeAllowed(a, b);
      const float s = scores(a, b);
      if (allowed && !frozen.Contains(a, b) &&
          s > -std::numeric_limits<float>::infinity()) {
        all.push_back(FlipCandidate{{is_feature, a, b}, s});
      }
    }
  }
  KeepTop(&all, keep);
  return all;
}

// Rescoring rounds: each names a random changed set, changes only the
// scores and freeze entries it covers (a feature bit in a changed row;
// an edge with an endpoint in it), and sometimes moves the current best
// candidates' columns into it so kept candidates sit in changed columns.
template <bool is_feature>
void ExpectCacheMatchesFullScan(int keep, bool restricted, uint64_t seed) {
  Rng rng(seed);
  const int rows = 150;
  const int cols = is_feature ? 40 : rows;
  std::vector<int> attackers;
  if (restricted) {
    for (int v = 0; v < rows; ++v) {
      if (rng.UniformInt(0, 2) == 0) attackers.push_back(v);
    }
  }
  const AccessControl access(rows, attackers);
  Matrix scores(rows, cols);
  for (int a = 0; a < rows; ++a) {
    for (int b = 0; b < cols; ++b) scores(a, b) = RandomScore(&rng);
  }
  FlipSet frozen(cols);
  for (int i = 0; i < 40; ++i) {
    const int a = static_cast<int>(rng.UniformInt(0, rows - 1));
    const int b = static_cast<int>(rng.UniformInt(0, cols - 1));
    if (is_feature) frozen.Insert(a, b);
    else if (a != b) frozen.InsertSymmetric(a, b);
  }
  const auto score = [&](int a, int b) { return scores(a, b); };
  ScanCache<is_feature> cache(rows, cols, keep);
  std::vector<FlipCandidate> last;
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    std::vector<char> changed(static_cast<size_t>(rows), 0);
    if (round > 0) {
      const int picks = static_cast<int>(rng.UniformInt(0, rows / 4));
      for (int i = 0; i < picks; ++i) {
        changed[static_cast<size_t>(rng.UniformInt(0, rows - 1))] = 1;
      }
      if (!is_feature && round % 2 == 1) {
        for (const FlipCandidate& c : last) {
          changed[static_cast<size_t>(c.flip.b)] = 1;
        }
      }
      for (int a = 0; a < rows; ++a) {
        for (int b = 0; b < cols; ++b) {
          const bool covered = changed[static_cast<size_t>(a)] ||
                               (!is_feature && changed[static_cast<size_t>(b)]);
          if (covered && rng.UniformInt(0, 1) == 0) {
            scores(a, b) = RandomScore(&rng);
          }
        }
      }
      for (int i = 0; i < 3; ++i) {
        const int a = static_cast<int>(rng.UniformInt(0, rows - 1));
        const int b = static_cast<int>(rng.UniformInt(0, cols - 1));
        if (!changed[static_cast<size_t>(a)]) continue;
        if (is_feature) frozen.Insert(a, b);
        else if (a != b) frozen.InsertSymmetric(a, b);
      }
    }
    std::vector<int> named;
    for (int r = 0; r < rows; ++r) {
      if (changed[static_cast<size_t>(r)]) named.push_back(r);
    }
    cache.Invalidate(named);
    const std::vector<FlipCandidate> cached =
        cache.Scan(access, &frozen, score);
    const std::vector<FlipCandidate> full =
        TopFlips<is_feature>(rows, cols, access, &frozen, keep, score);
    ASSERT_TRUE(SameCandidates(cached, full));
    ASSERT_TRUE(SameCandidates(
        full, ReferenceTop<is_feature>(scores, access, frozen, keep)));
    last = cached;
  }
}

// Edge rounds aimed at the bar of one row t, the only row with more
// than one candidate: the attacker controls t alone, so the scan returns
// t's best and shows any fault in it. Moves name only columns b > t, so
// row t stays clean and merges round after round. Each round is one
// move:
//  - promote: columns outside the row's best rise above its best, so
//    admitting them evicts kept entries;
//  - demote: the row's best m columns (up to 40, past any row depth)
//    sink below every other candidate, so with m at the depth every
//    slot drops below the bar and the row must fall back;
//  - reshuffle: the best m columns take fresh grid scores, interleaving
//    with entries evicted in earlier rounds;
//  - revive: NaN and -inf columns become candidates. When `sparse`, row
//    t starts with about 1 candidate in 40 and is complete; reviving
//    fills it, evicts from it and leaves rescored entries out.
// Scores keep ties, NaN and ±inf. Fallbacks must happen.
void ExpectBarMovesMatchFullScan(int keep, bool sparse, uint64_t seed) {
  Rng rng(seed);
  const int n = 150;
  const float inf = std::numeric_limits<float>::infinity();
  const int t = static_cast<int>(rng.UniformInt(0, 20));
  const AccessControl access(n, {t});
  Matrix scores(n, n);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      scores(a, b) = RandomScore(&rng);
      if (sparse && a == t && rng.UniformInt(0, 39) != 0) {
        scores(a, b) = b % 2 == 0 ? std::numeric_limits<float>::quiet_NaN()
                                  : -inf;
      }
    }
  }
  FlipSet frozen(n);
  for (int i = 0; i < 10; ++i) {
    const int b = static_cast<int>(rng.UniformInt(t + 1, n - 1));
    frozen.InsertSymmetric(t, b);
  }
  const auto score = [&](int a, int b) { return scores(a, b); };
  obs::Counter* const fallbacks = obs::GetCounter("attack.row_fallbacks");
  const uint64_t fallbacks_before = fallbacks->value();
  ScanCache</*is_feature=*/false> cache(n, n, keep);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(testing::Message() << "row " << t << " round " << round);
    std::vector<char> changed(static_cast<size_t>(n), 0);
    if (round > 0) {
      // Row t's candidates, best first.
      std::vector<FlipCandidate> row;
      for (int b = t + 1; b < n; ++b) {
        if (!frozen.Contains(t, b) && scores(t, b) > -inf) {
          row.push_back(FlipCandidate{{false, t, b}, scores(t, b)});
        }
      }
      std::sort(row.begin(), row.end(), RanksBefore);
      const float best = row.empty() ? 0.0f : row.front().score;
      const int kind = static_cast<int>(rng.UniformInt(sparse ? 1 : 0, 3));
      const int m = std::min(static_cast<int>(row.size()),
                             static_cast<int>(rng.UniformInt(1, 40)));
      std::vector<int> cols;
      if (kind == 0 || kind == 3) {
        for (int i = 0; i < 12; ++i) {
          cols.push_back(static_cast<int>(rng.UniformInt(t + 1, n - 1)));
        }
      } else {
        for (int i = 0; i < m; ++i) cols.push_back(row[i].flip.b);
      }
      for (const int b : cols) {
        float& s = scores(t, b);
        switch (kind) {
          case 0:  // promote
            s = std::isfinite(best)
                    ? best + 0.5f * static_cast<float>(rng.UniformInt(1, 3))
                    : inf;
            break;
          case 1:  // demote
            s = -3.5f - 0.5f * static_cast<float>(rng.UniformInt(0, 2));
            break;
          case 2:  // reshuffle
            s = RandomScore(&rng);
            break;
          default:  // revive
            if (!(s > -inf)) {
              s = 0.5f * static_cast<float>(rng.UniformInt(-6, 6));
            }
        }
        changed[static_cast<size_t>(b)] = 1;
      }
    }
    std::vector<int> named;
    for (int r = 0; r < n; ++r) {
      if (changed[static_cast<size_t>(r)]) named.push_back(r);
    }
    cache.Invalidate(named);
    const std::vector<FlipCandidate> cached =
        cache.Scan(access, &frozen, score);
    const std::vector<FlipCandidate> full =
        TopFlips<false>(n, n, access, &frozen, keep, score);
    ASSERT_TRUE(SameCandidates(cached, full));
    ASSERT_TRUE(SameCandidates(
        full, ReferenceTop<false>(scores, access, frozen, keep)));
  }
  if (!sparse) {
    EXPECT_GT(fallbacks->value(), fallbacks_before);
  }
}

// A complete row overfilled by one merge, then demoted. Row 0, the only
// row with candidates, starts with two; one merge revives 60 columns in
// ascending order. With `rising` scores each revived column evicts the
// worst kept one; otherwise the row fills and the rest stay out. A
// second merge demotes the row's best m columns, for every m up to 40,
// so at m equal to the row's depth only what the first merge evicted or
// left out still ranks high.
void ExpectOverfilledRowMatchesFullScan(int keep) {
  const int n = 80;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const AccessControl access(n, {0});
  const FlipSet frozen(n);
  for (const bool rising : {false, true}) {
    for (int m = 1; m <= 40; ++m) {
      SCOPED_TRACE(testing::Message() << "rising " << rising << " m " << m);
      Matrix scores(n, n, nan);
      scores(0, 1) = 200.0f;  // above every revived score
      scores(0, 2) = 150.0f;
      const auto score = [&](int a, int b) { return scores(a, b); };
      ScanCache</*is_feature=*/false> cache(n, n, keep);
      for (int round = 0; round < 3; ++round) {
        std::vector<int> named;
        if (round == 1) {
          for (int b = 10; b < 70; ++b) {
            const float step = static_cast<float>(b - 10);
            scores(0, b) = rising ? step : 100.0f - step;
            named.push_back(b);
          }
        } else if (round == 2) {
          std::vector<FlipCandidate> row;
          for (int b = 1; b < n; ++b) {
            if (scores(0, b) > -1.0f) {
              row.push_back(FlipCandidate{{false, 0, b}, scores(0, b)});
            }
          }
          std::sort(row.begin(), row.end(), RanksBefore);
          for (int i = 0; i < m; ++i) {
            scores(0, row[static_cast<size_t>(i)].flip.b) = -2.0f;
            named.push_back(row[static_cast<size_t>(i)].flip.b);
          }
          std::sort(named.begin(), named.end());
        }
        cache.Invalidate(named);
        const std::vector<FlipCandidate> cached =
            cache.Scan(access, &frozen, score);
        ASSERT_TRUE(SameCandidates(
            cached, ReferenceTop<false>(scores, access, frozen, keep)))
            << "round " << round;
      }
    }
  }
}

TEST(ScanCacheTest, CachedScanEqualsFullScanAtAnyThreadCount) {
  uint64_t seed = 700;
  for (const int threads : {1, 2, 8}) {
    const ScopedThreads scope(threads);
    // keep 0 (Gumbel) returns every candidate in row-major order.
    for (const int keep : {0, 1, 3, 16}) {
      for (const bool restricted : {false, true}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads << " keep "
                                        << keep << " restricted "
                                        << restricted);
        ExpectCacheMatchesFullScan</*is_feature=*/false>(keep, restricted,
                                                         ++seed);
        ExpectCacheMatchesFullScan</*is_feature=*/true>(keep, restricted,
                                                        ++seed);
      }
    }
  }
  // Rows whose bar has moved. Keep 20 rows are deeper than the rescan's
  // local heap.
  for (const int threads : {1, 2, 8}) {
    const ScopedThreads scope(threads);
    for (const int keep : {1, 3, 16, 20}) {
      for (const bool sparse : {false, true}) {
        for (int run = 0; run < 6; ++run) {
          SCOPED_TRACE(testing::Message() << "threads " << threads << " keep "
                                          << keep << " sparse " << sparse
                                          << " bar moves");
          ExpectBarMovesMatchFullScan(keep, sparse, ++seed);
        }
      }
      ExpectOverfilledRowMatchesFullScan(keep);
    }
  }
}

// Scores of a matrix in blocks: the scan's block scorer form, copying
// rows and columns out as the engine's kernels write them.
struct MatrixScorer {
  const Matrix& scores;

  float operator()(int a, int b) const { return scores(a, b); }
  void Row(int a, int b0, int b1, float* out) const {
    std::copy(scores.row(a) + b0, scores.row(a) + b1, out);
  }
  void Column(int b, int a0, int a1, float* out) const {
    for (int a = a0; a < a1; ++a) out[a - a0] = scores(a, b);
  }
};

// The allowed, unfrozen candidates of row `a` whose column passes
// `column`: what a scan reads there, one per candidate.
template <bool is_feature, typename ColumnFn>
uint64_t RowCandidates(int a, int cols, const AccessControl& access,
                       const FlipSet& frozen, const ColumnFn& column) {
  uint64_t count = 0;
  for (int b = is_feature ? 0 : a + 1; b < cols; ++b) {
    const bool allowed =
        is_feature ? access.FeatureAllowed(a) : access.EdgeAllowed(a, b);
    if (allowed && !frozen.Contains(a, b) && column(b)) ++count;
  }
  return count;
}

// Block scans against a per-candidate reference on inputs aimed at the
// column merge and its gate: restricted attackers, frozen pairs inside
// changed columns, and rows whose only candidates are NaN or -inf. Each
// round scans one cache through MatrixScorer and one through a
// per-candidate lambda. Both lists must equal the brute-force best, and
// both caches must count the same candidates: a full scan every allowed,
// unfrozen one; an incremental scan those of its changed rows, of the
// changed columns b > a of its clean edge rows, and of the rows it
// falls back on.
template <bool is_feature>
void ExpectBlockScanCountsPerCandidate(int keep, uint64_t seed) {
  Rng rng(seed);
  const int rows = 150;
  const int cols = is_feature ? 40 : rows;
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<int> attackers;
  for (int v = 0; v < rows; ++v) {
    if (rng.UniformInt(0, 2) == 0) attackers.push_back(v);
  }
  const AccessControl access(rows, attackers);
  Matrix scores(rows, cols);
  for (int a = 0; a < rows; ++a) {
    for (int b = 0; b < cols; ++b) scores(a, b) = RandomScore(&rng);
  }
  // Rows (and, for edges, their mirrored columns) with no finite score.
  const std::vector<int> dead = {attackers.front(), 77, rows - 2};
  const auto kill = [&](int r) {
    for (int b = 0; b < cols; ++b) {
      scores(r, b) = b % 2 == 0 ? std::numeric_limits<float>::quiet_NaN()
                                : -inf;
      if (!is_feature) scores(b, r) = scores(r, b);
    }
  };
  for (const int r : dead) kill(r);
  FlipSet frozen(cols);
  const auto freeze = [&](int a, int b) {
    if (is_feature) frozen.Insert(a, b);
    else if (a != b) frozen.InsertSymmetric(a, b);
  };
  for (int i = 0; i < 30; ++i) {
    freeze(static_cast<int>(rng.UniformInt(0, rows - 1)),
           static_cast<int>(rng.UniformInt(0, cols - 1)));
  }
  const auto per_candidate = [&](int a, int b) { return scores(a, b); };
  obs::Counter* const scanned = obs::GetCounter(
      is_feature ? "attack.features_scanned" : "attack.edges_scanned");
  obs::Counter* const fallbacks = obs::GetCounter("attack.row_fallbacks");
  ScanCache<is_feature> blocks(rows, cols, keep);
  ScanCache<is_feature> loops(rows, cols, keep);
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    std::vector<char> changed(static_cast<size_t>(rows), round == 0);
    if (round > 0) {
      const int picks = static_cast<int>(rng.UniformInt(1, rows / 5));
      for (int i = 0; i < picks; ++i) {
        changed[static_cast<size_t>(rng.UniformInt(0, rows - 1))] = 1;
      }
      std::vector<int> named_now;
      for (int r = 0; r < rows; ++r) {
        if (changed[static_cast<size_t>(r)]) named_now.push_back(r);
      }
      for (int a = 0; a < rows; ++a) {
        for (int b = 0; b < cols; ++b) {
          const bool covered = changed[static_cast<size_t>(a)] ||
                               (!is_feature && changed[static_cast<size_t>(b)]);
          if (covered && rng.UniformInt(0, 1) == 0) {
            scores(a, b) = RandomScore(&rng);
            if (!is_feature && a != b) scores(b, a) = scores(a, b);
          }
        }
      }
      // A changed row's scores die; frozen pairs land in changed columns.
      if (round % 3 == 0) kill(named_now.back());
      for (int i = 0; i < 6; ++i) {
        const int b = named_now[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(named_now.size()) - 1))];
        const int a = static_cast<int>(rng.UniformInt(0, rows - 1));
        if (is_feature) freeze(b, a % cols);
        else freeze(a, b);
      }
    }
    std::vector<int> named;
    for (int r = 0; r < rows; ++r) {
      if (changed[static_cast<size_t>(r)]) named.push_back(r);
    }
    // What a scan with no fallback reads.
    uint64_t expected = 0;
    for (int a = 0; a < rows; ++a) {
      expected += RowCandidates<is_feature>(
          a, cols, access, frozen, [&](int b) {
            return keep == 0 || round == 0 ||
                   changed[static_cast<size_t>(a)] ||
                   (!is_feature && changed[static_cast<size_t>(b)]);
          });
    }
    // A full scan reads every allowed, unfrozen candidate once.
    uint64_t all = 0;
    for (int a = 0; a < rows; ++a) {
      all += RowCandidates<is_feature>(a, cols, access, frozen,
                                       [](int) { return true; });
    }
    // A debug-numerics build also counts the full scan it checks an
    // incremental one against.
    const uint64_t check =
        debug::NumericsGuardEnabled() && keep > 0 && round > 0 ? all : 0;
    blocks.Invalidate(named);
    loops.Invalidate(named);
    const uint64_t fallbacks_before = fallbacks->value();
    uint64_t before = scanned->value();
    const std::vector<FlipCandidate> block_list =
        blocks.Scan(access, &frozen, MatrixScorer{scores});
    const uint64_t block_count = scanned->value() - before - check;
    const uint64_t block_fallbacks = fallbacks->value() - fallbacks_before;
    before = scanned->value();
    const std::vector<FlipCandidate> loop_list =
        loops.Scan(access, &frozen, per_candidate);
    const uint64_t loop_count = scanned->value() - before - check;
    ASSERT_TRUE(SameCandidates(block_list, loop_list));
    ASSERT_TRUE(SameCandidates(
        block_list, ReferenceTop<is_feature>(scores, access, frozen, keep)));
    EXPECT_EQ(block_count, loop_count);
    if (block_fallbacks == 0) {
      EXPECT_EQ(block_count, expected);
    } else {
      EXPECT_GE(block_count, expected);
    }
    before = scanned->value();
    ASSERT_TRUE(SameCandidates(
        TopFlips<is_feature>(rows, cols, access, &frozen, keep,
                             MatrixScorer{scores}),
        block_list));
    EXPECT_EQ(scanned->value() - before, all);
  }
}

TEST(ScanCacheTest, BlockScansMatchPerCandidateScansAndCounts) {
  uint64_t seed = 900;
  for (const int threads : {1, 2, 8}) {
    const ScopedThreads scope(threads);
    for (const int keep : {0, 1, 16, 20}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " keep "
                                      << keep);
      ExpectBlockScanCountsPerCandidate</*is_feature=*/false>(keep, ++seed);
      ExpectBlockScanCountsPerCandidate</*is_feature=*/true>(keep, ++seed);
    }
  }
}

TEST(FlipSetTest, RowCursorWalksOneRowsFrozenColumns) {
  FlipSet set(10);
  set.Insert(2, 7);
  set.Insert(2, 3);
  set.Insert(3, 0);  // the next row: never reported for row 2
  set.Insert(1, 9);
  FlipSet::RowCursor cursor = set.Row(2);
  EXPECT_EQ(cursor.NextFrozen(0, 10), 3);
  EXPECT_EQ(cursor.NextFrozen(3, 10), 3);
  EXPECT_EQ(cursor.NextFrozen(4, 10), 7);
  EXPECT_EQ(cursor.NextFrozen(8, 10), 10);
  EXPECT_EQ(set.Row(0).NextFrozen(0, 10), 10);
  EXPECT_EQ(FlipSet::RowCursor().NextFrozen(0, 10), 10);
}

class AttackerContract : public ::testing::Test {
 protected:
  // `beta` is the feature cost the attack ran with.
  void ExpectValidPoison(const Graph& clean, const AttackResult& result,
                         int budget, double beta = 1.0) {
    result.poisoned.CheckInvariants();
    const auto diff = graph::ComputeEdgeDiff(clean, result.poisoned);
    const int64_t feature_diff =
        graph::FeatureDiffCount(clean, result.poisoned);
    EXPECT_LE(diff.total() + beta * feature_diff, budget + 1e-9);
    EXPECT_EQ(diff.total(), result.edge_modifications);
    EXPECT_EQ(feature_diff, result.feature_modifications);
    EXPECT_GT(diff.total() + feature_diff, 0);
    // Every attacker records the flips it committed.
    EXPECT_EQ(result.flips.size(),
              static_cast<size_t>(diff.total() + feature_diff));
  }
};

TEST_F(AttackerContract, RandomAttackBudgetAndInvariants) {
  // A 12-node graph at rate 1 draws some pairs twice. A repeat is not
  // flipped again, so the whole budget is net change; every recorded
  // flip is ordered a < b.
  graph::SyntheticConfig tiny;
  tiny.name = "tiny";
  tiny.num_nodes = 12;
  tiny.num_classes = 2;
  tiny.feature_dim = 4;
  tiny.avg_degree = 3.0;
  Rng tiny_rng(2);
  const struct {
    Graph g;
    double rate;
    uint64_t seed;
  } inputs[] = {{SmallGraph(2), 0.1, 3},
                {graph::MakeSynthetic(tiny, &tiny_rng), 1.0, 12}};
  for (const auto& input : inputs) {
    RandomAttack attacker;
    AttackOptions options;
    options.perturbation_rate = input.rate;
    Rng rng(input.seed);
    const AttackResult result = attacker.Attack(input.g, options, &rng);
    ExpectValidPoison(input.g, result, ComputeBudget(input.g, input.rate));
    EXPECT_EQ(result.edge_modifications, ComputeBudget(input.g, input.rate));
    for (const Flip& flip : result.flips) {
      EXPECT_FALSE(flip.is_feature);
      EXPECT_LT(flip.a, flip.b);
    }
  }
}

TEST_F(AttackerContract, PgdBudgetAndInvariants) {
  const Graph g = SmallGraph(3);
  PgdAttack::Options fast;
  fast.steps = 20;
  fast.victim_epochs = 40;
  PgdAttack attacker(fast);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  Rng rng(4);
  const AttackResult result = attacker.Attack(g, options, &rng);
  ExpectValidPoison(g, result, ComputeBudget(g, 0.1));
}

TEST_F(AttackerContract, MinMaxBudgetAndInvariants) {
  const Graph g = SmallGraph(4);
  PgdAttack::Options fast;
  fast.steps = 15;
  fast.victim_epochs = 40;
  fast.inner_steps = 2;
  MinMaxAttack attacker(fast);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  Rng rng(5);
  const AttackResult result = attacker.Attack(g, options, &rng);
  ExpectValidPoison(g, result, ComputeBudget(g, 0.1));
}

TEST_F(AttackerContract, MetattackBudgetAndInvariants) {
  // At beta < 1 the budget can be left able to afford a feature flip but
  // not an edge flip; committing an edge then would overspend.
  const struct {
    uint64_t graph_seed;
    int inner_steps;
    double rate;
    double beta;
    uint64_t seed;
  } inputs[] = {{5, 10, 0.05, 1.0, 6}, {2, 5, 0.02, 0.3, 102},
                {2, 5, 0.02, 0.5, 102}};
  for (const auto& input : inputs) {
    SCOPED_TRACE(testing::Message() << "beta " << input.beta);
    const Graph g = SmallGraph(input.graph_seed, 0.25);
    Metattack::Options fast;
    fast.inner_steps = input.inner_steps;
    Metattack attacker(fast);
    AttackOptions options;
    options.perturbation_rate = input.rate;
    options.feature_cost = input.beta;
    Rng rng(input.seed);
    const AttackResult result = attacker.Attack(g, options, &rng);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ExpectValidPoison(g, result, ComputeBudget(g, input.rate), input.beta);
  }
}

TEST_F(AttackerContract, GfAttackBudgetAndInvariants) {
  const Graph g = SmallGraph(6, 0.25);
  GfAttack::Options fast;
  fast.rank = 16;
  fast.pool_factor = 10;
  fast.refine_factor = 1;
  GfAttack attacker(fast);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  Rng rng(7);
  const AttackResult result = attacker.Attack(g, options, &rng);
  ExpectValidPoison(g, result, ComputeBudget(g, 0.1));
}

TEST_F(AttackerContract, AttackerNodeSubsetRespected) {
  const Graph g = SmallGraph(7, 0.25);
  Rng subset_rng(8);
  AttackOptions options;
  options.perturbation_rate = 0.08;
  options.attacker_nodes = subset_rng.Sample(g.num_nodes, g.num_nodes / 5);
  std::vector<char> controlled(g.num_nodes, 0);
  for (int v : options.attacker_nodes) controlled[v] = 1;

  RandomAttack attacker;
  Rng rng(9);
  const AttackResult result = attacker.Attack(g, options, &rng);
  // Every modified edge must touch a controlled node.
  const Graph& p = result.poisoned;
  for (const auto& [u, v] : p.EdgeList()) {
    if (!g.HasEdge(u, v)) {
      EXPECT_TRUE(controlled[u] || controlled[v]);
    }
  }
  for (const auto& [u, v] : g.EdgeList()) {
    if (!p.HasEdge(u, v)) {
      EXPECT_TRUE(controlled[u] || controlled[v]);
    }
  }
}

TEST(AttackEffectTest, MetattackNeverOscillatesOnOneEdge) {
  // Regression: once the greedy objective plateaus, the attacker used to
  // flip one edge back and forth, so the net diff stalled below the
  // budget. With flip-freezing, every committed modification is real.
  const Graph g = SmallGraph(20, 0.25);
  Metattack::Options fast;
  fast.inner_steps = 10;
  Metattack attacker(fast);
  AttackOptions options;
  options.perturbation_rate = 0.25;
  Rng rng(21);
  const AttackResult result = attacker.Attack(g, options, &rng);
  const auto diff = graph::ComputeEdgeDiff(g, result.poisoned);
  const int64_t feature_diff =
      graph::FeatureDiffCount(g, result.poisoned);
  EXPECT_EQ(diff.total() + feature_diff,
            result.edge_modifications + result.feature_modifications);
}

TEST(AttackEffectTest, MetattackBeatsRandomAttack) {
  const Graph g = SmallGraph(10, 0.35);
  AttackOptions options;
  options.perturbation_rate = 0.15;

  Metattack::Options fast;
  fast.inner_steps = 15;
  Metattack metattack(fast);
  Rng rng1(11);
  const AttackResult meta_result = metattack.Attack(g, options, &rng1);

  RandomAttack random_attack;
  Rng rng2(12);
  const AttackResult random_result = random_attack.Attack(g, options, &rng2);

  const double clean_acc = GcnAccuracyOn(g, 100);
  const double meta_acc = GcnAccuracyOn(meta_result.poisoned, 100);
  const double random_acc = GcnAccuracyOn(random_result.poisoned, 100);
  EXPECT_LT(meta_acc, clean_acc);
  EXPECT_LT(meta_acc, random_acc + 0.02);  // allow small noise margin
}

TEST(AttackEffectTest, MetattackAddsMostlyInterClassEdges) {
  // The Sec. IV-A insight: attackers blur node context by adding edges
  // between differently labeled nodes.
  const Graph g = SmallGraph(13, 0.3);
  AttackOptions options;
  options.perturbation_rate = 0.15;
  Metattack::Options fast;
  fast.inner_steps = 15;
  Metattack attacker(fast);
  Rng rng(14);
  const AttackResult result = attacker.Attack(g, options, &rng);
  const auto diff = graph::ComputeEdgeDiff(g, result.poisoned);
  EXPECT_GT(diff.add_diff, diff.add_same);
}

}  // namespace
}  // namespace repro::attack
