// Tests of the parallel subsystem and its headline contract: every
// kernel and every attacker built on it produces BITWISE-IDENTICAL
// results at any thread count (DESIGN.md, "Determinism & threading").
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "attack/common.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "graph/generators.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/random.h"
#include "parallel/thread_pool.h"

namespace repro {
namespace {

using linalg::Matrix;
using linalg::Rng;
using linalg::SparseMatrix;

// Thread counts every determinism test sweeps: serial, parallel, and
// (on this 1-core CI box) heavily oversubscribed.
const std::vector<int> kThreadCounts = {1, 2, 8};

// Restores the default pool size even when a test fails mid-sweep.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { parallel::SetNumThreads(n); }
  ~ScopedThreads() { parallel::SetNumThreads(0); }
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

bool BitwiseEqual(const SparseMatrix& a, const SparseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         std::memcmp(a.values().data(), b.values().data(),
                     sizeof(float) * a.values().size()) == 0;
}

TEST(ParallelPrimitives, NumChunks) {
  EXPECT_EQ(parallel::NumChunks(0, 16), 0);
  EXPECT_EQ(parallel::NumChunks(-5, 16), 0);
  EXPECT_EQ(parallel::NumChunks(10, 3), 4);
  EXPECT_EQ(parallel::NumChunks(10, 100), 1);
  EXPECT_EQ(parallel::NumChunks(10, 0), 10);  // grain clamps to 1
  EXPECT_EQ(parallel::NumChunks(64, 16), 4);
}

TEST(ParallelPrimitives, EmptyRangeNeverInvokes) {
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    int calls = 0;
    parallel::ParallelFor(5, 5, 4, [&](int64_t, int64_t) { ++calls; });
    parallel::ParallelFor(7, 3, 4, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
  }
}

TEST(ParallelPrimitives, CoversEveryIndexExactlyOnce) {
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    // 103 and 7 are coprime: exercises a ragged final chunk.
    std::vector<int> touched(103, 0);
    parallel::ParallelFor(0, 103, 7, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++touched[static_cast<size_t>(i)];
    });
    for (int count : touched) EXPECT_EQ(count, 1);
  }
}

TEST(ParallelPrimitives, ChunkBoundariesIndependentOfThreadCount) {
  std::vector<std::vector<int64_t>> per_thread_count;
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    std::vector<int64_t> bounds(parallel::NumChunks(50, 8) * 2, -1);
    parallel::ParallelForChunked(
        0, 50, 8, [&](int64_t lo, int64_t hi, int64_t chunk) {
          bounds[static_cast<size_t>(2 * chunk)] = lo;
          bounds[static_cast<size_t>(2 * chunk + 1)] = hi;
        });
    per_thread_count.push_back(bounds);
  }
  for (size_t i = 1; i < per_thread_count.size(); ++i) {
    EXPECT_EQ(per_thread_count[i], per_thread_count[0]);
  }
  // The static partition itself: chunk c covers [8c, min(8c+8, 50)).
  EXPECT_EQ(per_thread_count[0],
            (std::vector<int64_t>{0, 8, 8, 16, 16, 24, 24, 32, 32, 40, 40,
                                  48, 48, 50}));
}

TEST(ParallelPrimitives, ReduceMatchesSerialFold) {
  std::vector<int64_t> values(1000);
  std::iota(values.begin(), values.end(), 1);
  const int64_t expected =
      std::accumulate(values.begin(), values.end(), int64_t{0});
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    const int64_t got = parallel::ParallelReduce<int64_t>(
        0, static_cast<int64_t>(values.size()), 64, int64_t{0},
        [&](int64_t lo, int64_t hi) {
          int64_t acc = 0;
          for (int64_t i = lo; i < hi; ++i) acc += values[i];
          return acc;
        },
        [](int64_t x, int64_t y) { return x + y; });
    EXPECT_EQ(got, expected);
  }
}

TEST(ParallelPrimitives, SetNumThreadsOverridesAndResets) {
  parallel::SetNumThreads(3);
  EXPECT_EQ(parallel::NumThreads(), 3);
  parallel::SetNumThreads(0);
  EXPECT_GE(parallel::NumThreads(), 1);
}

TEST(ParallelPrimitives, NestedCallsRunSeriallyWithoutDeadlock) {
  ScopedThreads scope(4);
  std::vector<int> touched(64, 0);
  parallel::ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      parallel::ParallelFor(0, 8, 1, [&](int64_t jlo, int64_t jhi) {
        for (int64_t j = jlo; j < jhi; ++j) {
          ++touched[static_cast<size_t>(8 * i + j)];
        }
      });
    }
  });
  for (int count : touched) EXPECT_EQ(count, 1);
}

// ---------------------------------------------------------------------------
// Kernel determinism across thread counts
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, DenseKernelsBitwiseIdentical) {
  Rng rng(11);
  // Odd shapes force ragged chunks in every kernel.
  const Matrix a = linalg::RandomNormal(97, 63, 1.0f, &rng);
  const Matrix b = linalg::RandomNormal(63, 41, 1.0f, &rng);
  const Matrix c = linalg::RandomNormal(97, 63, 1.0f, &rng);

  Matrix matmul_ref, transa_ref, transb_ref, add_ref, softmax_ref;
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    const Matrix matmul = linalg::MatMul(a, b);
    const Matrix transa = linalg::MatMulTransA(a, c);
    const Matrix transb = linalg::MatMulTransB(a, c);
    const Matrix add = linalg::Add(a, c);
    const Matrix softmax = linalg::RowSoftmax(a);
    if (threads == kThreadCounts.front()) {
      matmul_ref = matmul;
      transa_ref = transa;
      transb_ref = transb;
      add_ref = add;
      softmax_ref = softmax;
      continue;
    }
    EXPECT_TRUE(BitwiseEqual(matmul, matmul_ref)) << "threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(transa, transa_ref)) << "threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(transb, transb_ref)) << "threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(add, add_ref)) << "threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(softmax, softmax_ref)) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, ReductionsBitwiseIdentical) {
  Rng rng(13);
  // > 2 reduce chunks (grain 32768) so the chunked association is hit.
  const Matrix a = linalg::RandomNormal(300, 300, 1.0f, &rng);
  const Matrix b = linalg::RandomNormal(300, 300, 1.0f, &rng);
  double sum_ref = 0.0, frob_ref = 0.0;
  float diff_ref = 0.0f;
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    const double sum = linalg::Sum(a);
    const double frob = linalg::FrobeniusNorm(a);
    const float diff = linalg::MaxAbsDiff(a, b);
    if (threads == kThreadCounts.front()) {
      sum_ref = sum;
      frob_ref = frob;
      diff_ref = diff;
      continue;
    }
    EXPECT_EQ(sum, sum_ref) << "threads=" << threads;
    EXPECT_EQ(frob, frob_ref) << "threads=" << threads;
    EXPECT_EQ(diff, diff_ref) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, SpMMBitwiseIdentical) {
  Rng rng(17);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.3);
  const SparseMatrix a_n = graph::GcnNormalize(g.adjacency);
  Matrix ref;
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    const Matrix out = linalg::SpMM(a_n, g.features);
    if (threads == kThreadCounts.front()) {
      ref = out;
      continue;
    }
    EXPECT_TRUE(BitwiseEqual(out, ref)) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, OversubscriptionMatchesSerial) {
  // Far more threads than this machine has cores AND than there are
  // chunks: excess executors must simply find no work.
  Rng rng(19);
  const Matrix a = linalg::RandomNormal(40, 40, 1.0f, &rng);
  const Matrix b = linalg::RandomNormal(40, 40, 1.0f, &rng);
  Matrix ref;
  {
    ScopedThreads scope(1);
    ref = linalg::MatMul(a, b);
  }
  ScopedThreads scope(64);
  EXPECT_TRUE(BitwiseEqual(linalg::MatMul(a, b), ref));
}

// ---------------------------------------------------------------------------
// Greedy-scan tie-break and full-attack determinism
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, BestEdgeFlipTieBreaksToLowestIndex) {
  // 70 nodes = 3 scan chunks (grain 32). Plant the SAME best score in
  // chunk 0 and chunk 2; the lowest (u, v) must win at every count.
  const int n = 70;
  Matrix grad(n, n);
  Matrix dense(n, n);
  grad(2, 5) = 3.0f;   // score 3.0 at (2, 5) — chunk 0
  grad(65, 68) = 3.0f; // score 3.0 at (65, 68) — chunk 2
  const attack::AccessControl access(n, {});
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    const std::vector<attack::FlipCandidate> best =
        attack::TopFlips</*is_feature=*/false>(
            n, n, access, nullptr, /*keep=*/1, [&](int u, int v) {
              return (1.0f - 2.0f * dense(u, v)) * (grad(u, v) + grad(v, u));
            });
    ASSERT_EQ(best.size(), 1u);
    EXPECT_EQ(best[0].flip.a, 2) << "threads=" << threads;
    EXPECT_EQ(best[0].flip.b, 5) << "threads=" << threads;
    EXPECT_FLOAT_EQ(best[0].score, 3.0f);
  }
}

TEST(ParallelDeterminism, PeegaFullAttackIdenticalAcrossThreadCounts) {
  Rng graph_rng(23);
  const graph::Graph g = graph::MakeCoraLike(&graph_rng, 0.2);
  attack::AttackOptions options;
  options.perturbation_rate = 0.03;

  attack::AttackResult ref;
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    core::PeegaAttack attacker;
    Rng rng(29);
    const attack::AttackResult result = attacker.Attack(g, options, &rng);
    if (threads == kThreadCounts.front()) {
      ref = result;
      continue;
    }
    // Identical perturbation sets: same counts, same poisoned topology,
    // same poisoned features, bit for bit.
    EXPECT_EQ(result.edge_modifications, ref.edge_modifications)
        << "threads=" << threads;
    EXPECT_EQ(result.feature_modifications, ref.feature_modifications)
        << "threads=" << threads;
    EXPECT_TRUE(
        BitwiseEqual(result.poisoned.adjacency, ref.poisoned.adjacency))
        << "threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(result.poisoned.features, ref.poisoned.features))
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, PeegaBatchIdenticalAcrossThreadCounts) {
  Rng graph_rng(31);
  const graph::Graph g = graph::MakeCoraLike(&graph_rng, 0.2);
  attack::AttackOptions options;
  options.perturbation_rate = 0.03;
  core::PeegaBatchAttack::Options batch;
  batch.batch_size = 4;
  batch.gumbel_scale = 0.1f;  // exercises the serial noise post-pass

  attack::AttackResult ref;
  for (int threads : kThreadCounts) {
    ScopedThreads scope(threads);
    core::PeegaBatchAttack attacker(batch);
    Rng rng(37);
    const attack::AttackResult result = attacker.Attack(g, options, &rng);
    if (threads == kThreadCounts.front()) {
      ref = result;
      continue;
    }
    EXPECT_EQ(result.edge_modifications, ref.edge_modifications)
        << "threads=" << threads;
    EXPECT_EQ(result.feature_modifications, ref.feature_modifications)
        << "threads=" << threads;
    EXPECT_TRUE(
        BitwiseEqual(result.poisoned.adjacency, ref.poisoned.adjacency))
        << "threads=" << threads;
    EXPECT_TRUE(BitwiseEqual(result.poisoned.features, ref.poisoned.features))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace repro
