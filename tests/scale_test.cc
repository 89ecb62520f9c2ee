// Scale-differential suite for the sparse-first commit path.
//
// PR 9 removed the dense O(N²) round-trip (ToDense → FlipEdge →
// DenseToAdjacency) from every attacker commit; flips now go through
// graph::WithFlips / the engine's sparse state. The contract is that
// the sparse commit is BITWISE-identical to what the deleted dense
// round-trip produced — same CSR arrays, not just the same edge set —
// at every graph size and thread count. This file checks that contract
// by replaying each attack's recorded flip list through the dense path
// and comparing CSR arrays exactly, and pins the StreamingSbm generator
// (the million-node scale path's graph source) with property tests and
// a golden fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/attacker.h"
#include "attack/common.h"
#include "attack/dice.h"
#include "attack/gf_attack.h"
#include "attack/metattack.h"
#include "attack/pgd.h"
#include "attack/random_attack.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/metrics.h"
#include "graph/streaming_sbm.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/sparse.h"
#include "parallel/thread_pool.h"

namespace repro {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using attack::Flip;
using graph::Graph;
using linalg::Matrix;
using linalg::Rng;
using linalg::SparseMatrix;

// Exact CSR-array equality: the sparse commit must reproduce the dense
// round-trip bit for bit (row_ptr, sorted columns, every value 1.0f),
// because downstream consumers (GCN normalization, the incremental
// engine's caches) key off the exact storage layout.
void ExpectBitwiseEqualCsr(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

// Replays a recorded flip sequence through the historical dense path:
// densify, toggle per flip, rebuild. This IS the code the sparse commit
// replaced, reconstructed from the still-exported dense primitives.
SparseMatrix DenseReplayAdjacency(const Graph& clean,
                                  const std::vector<Flip>& flips) {
  Matrix dense = clean.adjacency.ToDense();
  for (const Flip& flip : flips) {
    if (!flip.is_feature) attack::FlipEdge(&dense, flip.a, flip.b);
  }
  return attack::DenseToAdjacency(dense);
}

Matrix DenseReplayFeatures(const Graph& clean,
                           const std::vector<Flip>& flips) {
  Matrix features = clean.features;
  for (const Flip& flip : flips) {
    if (flip.is_feature) attack::FlipFeature(&features, flip.a, flip.b);
  }
  return features;
}

void ExpectSparseCommitMatchesDenseReplay(const Graph& clean,
                                          const AttackResult& result) {
  result.poisoned.CheckInvariants();
  ExpectBitwiseEqualCsr(DenseReplayAdjacency(clean, result.flips),
                        result.poisoned.adjacency);
  EXPECT_EQ(linalg::MaxAbsDiff(DenseReplayFeatures(clean, result.flips),
                               result.poisoned.features),
            0.0f);
}

std::string FlipString(const std::vector<Flip>& flips) {
  std::ostringstream os;
  for (const Flip& f : flips) {
    os << (f.is_feature ? "F " : "E ") << f.a << " " << f.b << "\n";
  }
  return os.str();
}

Graph SbmGraph(int num_nodes, uint64_t seed) {
  graph::SyntheticConfig config;
  config.name = "sbm-scale";
  config.num_nodes = num_nodes;
  config.num_classes = 3;
  config.feature_dim = 48;
  config.avg_degree = 4.0;
  Rng rng(seed);
  return graph::MakeSynthetic(config, &rng);
}

// FNV-1a over an edge sequence; same fold the golden harness uses.
uint64_t EdgeSequenceHash(const std::vector<std::pair<int, int>>& edges) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [u, v] : edges) {
    h ^= static_cast<uint64_t>(u) * 1000003u + static_cast<uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t EdgeListHash(const Graph& g) { return EdgeSequenceHash(g.EdgeList()); }

// --- PEEGA / PEEGA-Batch: sparse commit == dense replay -----------------
//
// Every (n, threads) cell runs the incremental-engine attack, replays
// its flip list densely, and requires bitwise CSR equality — and the
// flip sequence itself must not depend on the thread count.

void RunPeegaDifferential(int num_nodes) {
  const Graph g = SbmGraph(num_nodes, 31 + num_nodes);
  AttackOptions options;
  // A handful of flips at every n: the differential exercises the commit
  // path, not budget growth, and keeps n = 2000 affordable in CI.
  options.perturbation_rate = 6.0 / static_cast<double>(g.NumEdges());
  std::string first_sequence;
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    core::PeegaAttack::Options peega;
    peega.engine = core::PeegaAttack::Engine::kIncremental;
    Rng rng(99);
    const AttackResult result =
        core::PeegaAttack(peega).Attack(g, options, &rng);
    EXPECT_GT(result.flips.size(), 0u);
    ExpectSparseCommitMatchesDenseReplay(g, result);
    if (first_sequence.empty()) {
      first_sequence = FlipString(result.flips);
    } else {
      EXPECT_EQ(first_sequence, FlipString(result.flips))
          << "n=" << num_nodes << " at " << threads << " threads";
    }
  }
  parallel::SetNumThreads(0);
}

void RunPeegaBatchDifferential(int num_nodes) {
  const Graph g = SbmGraph(num_nodes, 57 + num_nodes);
  AttackOptions options;
  options.perturbation_rate = 8.0 / static_cast<double>(g.NumEdges());
  core::PeegaBatchAttack::Options batch;
  batch.batch_size = 4;
  batch.peega.engine = core::PeegaAttack::Engine::kIncremental;
  std::string first_sequence;
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    Rng rng(7);
    const AttackResult result =
        core::PeegaBatchAttack(batch).Attack(g, options, &rng);
    EXPECT_GT(result.flips.size(), 0u);
    ExpectSparseCommitMatchesDenseReplay(g, result);
    if (first_sequence.empty()) {
      first_sequence = FlipString(result.flips);
    } else {
      EXPECT_EQ(first_sequence, FlipString(result.flips))
          << "n=" << num_nodes << " at " << threads << " threads";
    }
  }
  parallel::SetNumThreads(0);
}

TEST(SparseCommitDifferential, PeegaN60) { RunPeegaDifferential(60); }
TEST(SparseCommitDifferential, PeegaN500) { RunPeegaDifferential(500); }
TEST(SparseCommitDifferential, PeegaN2000) { RunPeegaDifferential(2000); }

TEST(SparseCommitDifferential, PeegaBatchN60) {
  RunPeegaBatchDifferential(60);
}
TEST(SparseCommitDifferential, PeegaBatchN500) {
  RunPeegaBatchDifferential(500);
}
TEST(SparseCommitDifferential, PeegaBatchN2000) {
  RunPeegaBatchDifferential(2000);
}

// The tape engine shares the same sparse commit; one small-n cell keeps
// it covered directly (engine_equiv_test covers tape == incremental).
TEST(SparseCommitDifferential, PeegaTapeEngineN60) {
  const Graph g = SbmGraph(60, 91);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  core::PeegaAttack::Options peega;
  peega.engine = core::PeegaAttack::Engine::kTape;
  Rng rng(99);
  const AttackResult result = core::PeegaAttack(peega).Attack(g, options, &rng);
  EXPECT_GT(result.flips.size(), 0u);
  ExpectSparseCommitMatchesDenseReplay(g, result);
}

// --- Random / DICE: pinned outputs + dense replay -----------------------
//
// Random and DICE commit without a dense round-trip. The regressions pin
// the exact poisoned edge set (FNV hash; DICE's recorded from the dense
// implementation, Random's since it draws each pair once) and replay
// the recorded flip lists densely as a second, structural witness.

TEST(SparseCommitDifferential, RandomAttackPinnedAndReplayed) {
  Rng graph_rng(7);
  const Graph g = graph::MakeCoraLike(&graph_rng, 0.3);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  attack::RandomAttack attacker;
  Rng rng(123);
  const AttackResult result = attacker.Attack(g, options, &rng);
  // This seed draws (0, 141) and (62, 130) twice. Each pair is now drawn
  // once, so all 30 flips are net changes (before: 26 net, 331 edges).
  EXPECT_EQ(result.poisoned.NumEdges(), 335);
  EXPECT_EQ(result.edge_modifications, 30);
  EXPECT_EQ(graph::ComputeEdgeDiff(g, result.poisoned).total(), 30);
  EXPECT_EQ(result.flips.size(), 30u);
  EXPECT_EQ(EdgeListHash(result.poisoned), 7643530119703387330ull);
  ExpectSparseCommitMatchesDenseReplay(g, result);
}

TEST(SparseCommitDifferential, DiceAttackPinnedAndReplayed) {
  Rng graph_rng(7);
  const Graph g = graph::MakeCoraLike(&graph_rng, 0.3);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  attack::DiceAttack attacker;
  Rng rng(321);
  const AttackResult result = attacker.Attack(g, options, &rng);
  EXPECT_EQ(result.poisoned.NumEdges(), 303);
  EXPECT_EQ(result.edge_modifications, 30);
  EXPECT_EQ(result.flips.size(), 30u);
  EXPECT_EQ(EdgeListHash(result.poisoned), 9157304463112017046ull);
  ExpectSparseCommitMatchesDenseReplay(g, result);
}

// --- PGD / MinMax / Metattack / GF-Attack: pinned outputs + replay ------
//
// These attackers used to rebuild the CSR from a dense copy and report
// no flips. The pins are the poisoned edge sets and feature-diff counts
// of that dense rebuild at feature_cost 1; the replay holds the flips
// they now record to the graph they return.

void ExpectPinnedAndReplayed(attack::Attacker* attacker, uint64_t seed,
                             uint64_t edge_hash, int64_t feature_diff) {
  Rng graph_rng(7);
  const Graph g = graph::MakeCoraLike(&graph_rng, 0.3);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  Rng rng(seed);
  const AttackResult result = attacker->Attack(g, options, &rng);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.flips.size(), 0u);
  EXPECT_EQ(result.flips.size(),
            static_cast<size_t>(result.edge_modifications +
                                result.feature_modifications));
  EXPECT_EQ(EdgeListHash(result.poisoned), edge_hash);
  EXPECT_EQ(graph::FeatureDiffCount(g, result.poisoned), feature_diff);
  ExpectSparseCommitMatchesDenseReplay(g, result);
}

TEST(SparseCommitDifferential, PgdPinnedAndReplayed) {
  attack::PgdAttack::Options fast;
  fast.steps = 20;
  fast.victim_epochs = 40;
  attack::PgdAttack attacker(fast);
  ExpectPinnedAndReplayed(&attacker, 41, 11518237199542398245ull, 0);
}

TEST(SparseCommitDifferential, MinMaxPinnedAndReplayed) {
  attack::PgdAttack::Options fast;
  fast.steps = 15;
  fast.victim_epochs = 40;
  fast.inner_steps = 2;
  attack::MinMaxAttack attacker(fast);
  ExpectPinnedAndReplayed(&attacker, 42, 5466834452431418314ull, 0);
}

TEST(SparseCommitDifferential, MetattackPinnedAndReplayed) {
  attack::Metattack::Options fast;
  fast.inner_steps = 10;
  attack::Metattack attacker(fast);
  ExpectPinnedAndReplayed(&attacker, 43, 8617768260269376440ull, 0);
}

TEST(SparseCommitDifferential, GfAttackPinnedAndReplayed) {
  attack::GfAttack::Options fast;
  fast.rank = 16;
  fast.pool_factor = 10;
  fast.refine_factor = 1;
  attack::GfAttack attacker(fast);
  ExpectPinnedAndReplayed(&attacker, 44, 12980516668232221351ull, 0);
}

// --- StreamingSbm property tests ----------------------------------------

graph::StreamingSbmConfig TestStreamConfig() {
  graph::StreamingSbmConfig config;
  config.num_nodes = 2000;
  config.seed = 42;
  return config;
}

// Golden fixture: the stream is a pure function of the seed, so the
// whole edge sequence (order included) is pinned by one FNV fold. If
// this hash moves, every recorded scale campaign changes meaning.
TEST(StreamingSbmTest, GoldenEdgeStreamForPinnedSeed) {
  graph::StreamingSbm stream(TestStreamConfig());
  std::vector<std::pair<int, int>> edges;
  std::pair<int, int> edge;
  while (stream.Next(&edge)) edges.push_back(edge);
  EXPECT_EQ(stream.target_edges(), 10000);
  EXPECT_EQ(stream.emitted(), 10000);
  ASSERT_EQ(edges.size(), 10000u);
  EXPECT_EQ(edges[0], (std::pair<int, int>(1500, 1510)));
  EXPECT_EQ(edges[1], (std::pair<int, int>(272, 550)));
  EXPECT_EQ(edges[2], (std::pair<int, int>(909, 1149)));
  EXPECT_EQ(EdgeSequenceHash(edges), 1169008610388587798ull);
  // Drained stream stays drained.
  EXPECT_FALSE(stream.Next(&edge));
}

TEST(StreamingSbmTest, StreamEmitsValidUndirectedEdges) {
  graph::StreamingSbm stream(TestStreamConfig());
  std::pair<int, int> edge;
  std::vector<std::pair<int, int>> seen;
  while (stream.Next(&edge)) {
    EXPECT_LT(edge.first, edge.second);  // u < v, hence no self-loops
    EXPECT_GE(edge.first, 0);
    EXPECT_LT(edge.second, 2000);
    seen.push_back(edge);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
      << "duplicate undirected edge emitted";
}

// The generator is serial by construction: the materialized graph must
// be bitwise identical at every thread count (same contract the PEEGA
// scan keeps, so a whole scale campaign is thread-count invariant).
TEST(StreamingSbmTest, MaterializeIsThreadCountInvariant) {
  Graph first;
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    graph::StreamingSbm stream(TestStreamConfig());
    Graph g = stream.Materialize();
    if (threads == 1) {
      first = std::move(g);
      continue;
    }
    ExpectBitwiseEqualCsr(first.adjacency, g.adjacency);
    EXPECT_EQ(linalg::MaxAbsDiff(first.features, g.features), 0.0f);
    EXPECT_EQ(first.labels, g.labels);
    EXPECT_EQ(first.train_nodes, g.train_nodes);
    EXPECT_EQ(first.val_nodes, g.val_nodes);
    EXPECT_EQ(first.test_nodes, g.test_nodes);
  }
  parallel::SetNumThreads(0);
}

TEST(StreamingSbmTest, MaterializedGraphSatisfiesInvariantsAndStats) {
  graph::StreamingSbm stream(TestStreamConfig());
  const Graph g = stream.Materialize();
  g.CheckInvariants();
  EXPECT_EQ(g.num_nodes, 2000);
  EXPECT_EQ(g.num_classes, 5);
  // Mean degree tracks the configured target (10.0 here; the stream hit
  // its full edge budget in this configuration).
  const double mean_degree =
      2.0 * static_cast<double>(g.NumEdges()) / g.num_nodes;
  EXPECT_NEAR(mean_degree, 10.0, 0.5);
  // Homophily lands near the configured 0.8 (measured 0.798).
  EXPECT_NEAR(graph::HomophilyRatio(g), 0.8, 0.05);
  // Splits follow the configured fractions.
  EXPECT_EQ(g.train_nodes.size(), 200u);
  EXPECT_EQ(g.val_nodes.size(), 200u);
  EXPECT_EQ(g.test_nodes.size(), 1600u);
}

TEST(StreamingSbmTest, LabelsAreContiguousClassBlocks) {
  const graph::StreamingSbmConfig config = TestStreamConfig();
  graph::StreamingSbm stream(config);
  const Graph g = stream.Materialize();
  graph::StreamingSbm probe(config);
  for (int v = 0; v < g.num_nodes; ++v) {
    const int expected = static_cast<int>(
        static_cast<int64_t>(v) * config.num_classes / config.num_nodes);
    EXPECT_EQ(g.labels[v], expected);
    EXPECT_EQ(probe.Label(v), expected);
  }
}

TEST(StreamingSbmTest, DifferentSeedsGiveDifferentStreams) {
  graph::StreamingSbmConfig a = TestStreamConfig();
  graph::StreamingSbmConfig b = TestStreamConfig();
  b.seed = 43;
  graph::StreamingSbm sa(a);
  graph::StreamingSbm sb(b);
  std::vector<std::pair<int, int>> ea, eb;
  std::pair<int, int> edge;
  while (sa.Next(&edge)) ea.push_back(edge);
  while (sb.Next(&edge)) eb.push_back(edge);
  EXPECT_NE(EdgeSequenceHash(ea), EdgeSequenceHash(eb));
}

}  // namespace
}  // namespace repro
