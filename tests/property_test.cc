// Cross-cutting property suites: every attacker must uphold the same
// contract at every budget; normalization and propagation identities
// must hold on random graphs; training must be deterministic given a
// seed. These parameterized tests sweep configurations the per-module
// unit tests spot-check.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "attack/common.h"
#include "attack/dice.h"
#include "attack/gf_attack.h"
#include "attack/metattack.h"
#include "attack/pgd.h"
#include "attack/random_attack.h"
#include "autograd/tape.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "core/peega_engine.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "linalg/ops.h"
#include "nn/gcn.h"
#include "nn/trainer.h"

namespace repro {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using attack::Attacker;
using graph::Graph;
using linalg::Matrix;
using linalg::Rng;
using linalg::SparseMatrix;

Graph TestGraph(uint64_t seed = 100) {
  Rng rng(seed);
  return graph::MakeCoraLike(&rng, 0.25);
}

// ---------------------------------------------------------------------------
// Attacker contract sweep: every attacker x every rate.
// ---------------------------------------------------------------------------

struct AttackerCase {
  std::string name;
  std::function<std::unique_ptr<Attacker>()> make;
  double rate;
};

class AttackerProperty : public ::testing::TestWithParam<AttackerCase> {};

TEST_P(AttackerProperty, BudgetSymmetryAndBinaryInvariants) {
  const AttackerCase& param = GetParam();
  const Graph g = TestGraph();
  auto attacker = param.make();
  AttackOptions options;
  options.perturbation_rate = param.rate;
  Rng rng(7);
  const AttackResult result = attacker->Attack(g, options, &rng);

  // Structural invariants: symmetric, binary, no self loops.
  result.poisoned.CheckInvariants();
  // Budget: total modifications bounded by delta.
  const auto diff = graph::ComputeEdgeDiff(g, result.poisoned);
  const int64_t feature_diff =
      graph::FeatureDiffCount(g, result.poisoned);
  EXPECT_LE(diff.total() + feature_diff,
            attack::ComputeBudget(g, param.rate));
  // Labels and splits untouched.
  EXPECT_EQ(result.poisoned.labels, g.labels);
  EXPECT_EQ(result.poisoned.train_nodes, g.train_nodes);
  // Node count preserved.
  EXPECT_EQ(result.poisoned.num_nodes, g.num_nodes);
}

std::vector<AttackerCase> AttackerCases() {
  std::vector<AttackerCase> cases;
  const std::vector<double> rates = {0.05, 0.1, 0.2};
  for (const double rate : rates) {
    const std::string suffix =
        "_r" + std::to_string(static_cast<int>(rate * 100));
    cases.push_back({"Random" + suffix,
                     [] { return std::make_unique<attack::RandomAttack>(); },
                     rate});
    cases.push_back({"Dice" + suffix,
                     [] { return std::make_unique<attack::DiceAttack>(); },
                     rate});
    cases.push_back({"Peega" + suffix,
                     [] { return std::make_unique<core::PeegaAttack>(); },
                     rate});
    cases.push_back(
        {"PeegaBatch" + suffix,
         [] { return std::make_unique<core::PeegaBatchAttack>(); }, rate});
  }
  // Expensive attackers once at the default rate.
  cases.push_back({"Pgd_r10",
                   [] {
                     attack::PgdAttack::Options fast;
                     fast.steps = 15;
                     fast.victim_epochs = 30;
                     return std::make_unique<attack::PgdAttack>(fast);
                   },
                   0.1});
  cases.push_back({"Metattack_r10",
                   [] {
                     attack::Metattack::Options fast;
                     fast.inner_steps = 8;
                     return std::make_unique<attack::Metattack>(fast);
                   },
                   0.1});
  cases.push_back({"GfAttack_r10",
                   [] {
                     attack::GfAttack::Options fast;
                     fast.rank = 12;
                     fast.pool_factor = 8;
                     fast.refine_factor = 1;
                     return std::make_unique<attack::GfAttack>(fast);
                   },
                   0.1});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllAttackers, AttackerProperty, ::testing::ValuesIn(AttackerCases()),
    [](const ::testing::TestParamInfo<AttackerCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Normalization identities on random graphs.
// ---------------------------------------------------------------------------

class NormalizationProperty : public ::testing::TestWithParam<int> {};

TEST_P(NormalizationProperty, SymmetricWithUnitSpectralRadiusBound) {
  Rng rng(GetParam());
  graph::SyntheticConfig config;
  config.num_nodes = 60 + GetParam() * 7;
  config.num_classes = 4;
  config.feature_dim = 40;
  config.avg_degree = 3.0 + GetParam();
  const Graph g = graph::MakeSynthetic(config, &rng);
  const SparseMatrix a_n = graph::GcnNormalize(g.adjacency);
  // Symmetry.
  EXPECT_LT(linalg::MaxAbsDiff(a_n.ToDense(),
                               a_n.Transposed().ToDense()),
            1e-5f);
  // The GCN normalization has spectral radius <= 1, so repeated
  // application must be non-expansive in L2.
  std::vector<float> x(g.num_nodes, 1.0f);
  auto norm2 = [](const std::vector<float>& v) {
    double acc = 0.0;
    for (float e : v) acc += static_cast<double>(e) * e;
    return std::sqrt(acc);
  };
  const double initial_norm = norm2(x);
  for (int it = 0; it < 20; ++it) {
    const linalg::Matrix ax =
        linalg::SpMM(a_n, linalg::Matrix(g.num_nodes, 1, x));
    x.assign(ax.data(), ax.data() + ax.size());
    EXPECT_LE(norm2(x), initial_norm * (1.0 + 1e-4));
    for (float v : x) EXPECT_FALSE(std::isnan(v));
  }
}

TEST_P(NormalizationProperty, KHopMonotoneInK) {
  Rng rng(200 + GetParam());
  graph::SyntheticConfig config;
  config.num_nodes = 50;
  config.num_classes = 3;
  config.feature_dim = 30;
  config.avg_degree = 2.5;
  const Graph g = graph::MakeSynthetic(config, &rng);
  const auto one = graph::KHopAdjacency(g.adjacency, 1);
  const auto two = graph::KHopAdjacency(g.adjacency, 2);
  const auto three = graph::KHopAdjacency(g.adjacency, 3);
  EXPECT_LE(one.nnz(), two.nnz());
  EXPECT_LE(two.nnz(), three.nnz());
  // Every 1-hop edge survives in the 2-hop closure.
  const auto& row_ptr = one.row_ptr();
  const auto& col_idx = one.col_idx();
  for (int u = 0; u < g.num_nodes; ++u) {
    for (int64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
      EXPECT_GT(two.At(u, col_idx[k]), 0.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizationProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Determinism and training properties.
// ---------------------------------------------------------------------------

TEST(DeterminismProperty, TrainingIsBitReproducibleGivenSeed) {
  const Graph g = TestGraph(300);
  auto run = [&]() {
    Rng rng(9);
    nn::Gcn gcn(g.features.cols(), g.num_classes, nn::Gcn::Options(),
                &rng);
    nn::TrainOptions train;
    train.max_epochs = 40;
    nn::TrainNodeClassifier(&gcn, g, train, &rng);
    return nn::PredictLogits(&gcn, g, &rng);
  };
  EXPECT_LT(linalg::MaxAbsDiff(run(), run()), 1e-7f);
}

TEST(DeterminismProperty, PeegaIsDeterministic) {
  const Graph g = TestGraph(301);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  core::PeegaAttack attacker;
  Rng rng1(1), rng2(999);  // PEEGA ignores the RNG entirely
  const auto a = attacker.Attack(g, options, &rng1);
  const auto b = attacker.Attack(g, options, &rng2);
  EXPECT_EQ(a.poisoned.EdgeList(), b.poisoned.EdgeList());
}

TEST(TrainerProperty, BestValidationWeightsAreRestored) {
  // After training with patience, the reported val accuracy must equal
  // the best seen during training — i.e. restore actually happened.
  const Graph g = TestGraph(302);
  Rng rng(10);
  nn::Gcn gcn(g.features.cols(), g.num_classes, nn::Gcn::Options(), &rng);
  nn::TrainOptions train;
  train.max_epochs = 120;
  train.patience = 15;
  const auto report = nn::TrainNodeClassifier(&gcn, g, train, &rng);
  // Re-evaluate with the restored weights: must match the report.
  const auto preds = nn::PredictLabels(&gcn, g, &rng);
  EXPECT_DOUBLE_EQ(graph::Accuracy(preds, g.labels, g.val_nodes),
                   report.val_accuracy);
}

// ---------------------------------------------------------------------------
// PEEGA objective properties.
// ---------------------------------------------------------------------------

class PeegaObjectiveProperty : public ::testing::TestWithParam<int> {};

TEST_P(PeegaObjectiveProperty, GreedyBudgetBeatsRandomBudget) {
  // Note the Lp norm is non-differentiable at 0 (the clean graph), so
  // the VERY FIRST greedy flip is only subgradient-guided; the robust
  // property is that a greedy *budget* of flips reaches a higher
  // objective than random budgets of equal size almost always.
  const int p = GetParam();
  Rng rng(400 + p);
  const Graph g = graph::MakeCoraLike(&rng, 0.15);
  core::PeegaAttack::Options options;
  options.norm_p = p;
  options.mode = core::PeegaAttack::Mode::kTopologyOnly;
  core::PeegaAttack attacker(options);
  AttackOptions attack_options;
  attack_options.perturbation_rate = 0.05;
  Rng attack_rng(1);
  const auto result = attacker.Attack(g, attack_options, &attack_rng);
  const int budget = result.edge_modifications;
  ASSERT_GT(budget, 0);
  const double greedy_obj = attacker.Objective(
      g, result.poisoned.adjacency.ToDense(), result.poisoned.features);

  // Gradient greedy is a linearization heuristic: single random trials
  // can get lucky on this nonlinear objective (degree renormalization
  // makes flips interact), but the greedy result must beat the MEAN of
  // random budgets.
  double random_sum = 0.0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    Matrix base = g.adjacency.ToDense();
    for (int flip = 0; flip < budget; ++flip) {
      int u, v;
      do {
        u = static_cast<int>(rng.UniformInt(0, g.num_nodes - 1));
        v = static_cast<int>(rng.UniformInt(0, g.num_nodes - 1));
      } while (u == v);
      attack::FlipEdge(&base, u, v);
    }
    random_sum += attacker.Objective(g, base, g.features);
  }
  EXPECT_GT(greedy_obj, random_sum / trials) << "p=" << p;
}

// p = 1 is excluded: its sign-based subgradient is magnitude-blind, so
// gradient greedy is not reliably better than random at maximizing the
// p = 1 objective (the paper also finds p = 1 helpful only on the
// identity-feature dataset); a separate smoke test covers it.
INSTANTIATE_TEST_SUITE_P(Norms, PeegaObjectiveProperty,
                         ::testing::Values(2, 3));

TEST(PeegaObjectiveProperty, P1ObjectiveIsPositiveAndBudgeted) {
  Rng rng(500);
  const Graph g = graph::MakeCoraLike(&rng, 0.2);
  core::PeegaAttack::Options options;
  options.norm_p = 1;
  core::PeegaAttack attacker(options);
  AttackOptions attack_options;
  attack_options.perturbation_rate = 0.05;
  Rng attack_rng(2);
  const auto result = attacker.Attack(g, attack_options, &attack_rng);
  EXPECT_GT(attacker.Objective(g, result.poisoned.adjacency.ToDense(),
                               result.poisoned.features),
            0.0);
}

// ---------------------------------------------------------------------------
// Incremental engine cache properties (core/peega_engine.h).
// ---------------------------------------------------------------------------

core::PeegaEngine::Config EngineConfig(int layers = 2, int norm_p = 2,
                                       float lambda = 0.01f) {
  core::PeegaEngine::Config config;
  config.layers = layers;
  config.norm_p = norm_p;
  config.lambda = lambda;
  return config;
}

// A flip applied twice is the identity on every cache: the delta updates
// must restore the clean surrogate BITWISE, not approximately — any
// drift here would compound over a greedy run and break the
// differential contract with the tape engine.
TEST(EngineCacheProperty, FlipTwiceIsIdentityOnCachedSurrogate) {
  const Graph g = TestGraph(601);
  core::PeegaEngine engine(g, EngineConfig());
  ASSERT_TRUE(engine.RefreshScores().ok());
  const Matrix clean = engine.surrogate();
  const double clean_objective = engine.Objective();

  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const int u = rng.UniformInt(0, g.num_nodes - 1);
    const int v = (u + 1 + rng.UniformInt(0, g.num_nodes - 2)) % g.num_nodes;
    engine.FlipEdge(u, v);
    ASSERT_TRUE(engine.RefreshScores().ok());
    engine.FlipEdge(u, v);
    ASSERT_TRUE(engine.RefreshScores().ok());
    const int node = rng.UniformInt(0, g.num_nodes - 1);
    const int dim = rng.UniformInt(0, g.features.cols() - 1);
    engine.FlipFeature(node, dim);
    ASSERT_TRUE(engine.RefreshScores().ok());
    engine.FlipFeature(node, dim);
    ASSERT_TRUE(engine.RefreshScores().ok());
  }
  EXPECT_EQ(linalg::MaxAbsDiff(engine.surrogate(), clean), 0.0f);
  EXPECT_EQ(engine.Objective(), clean_objective);
  EXPECT_EQ(linalg::MaxAbsDiff(engine.features(), g.features), 0.0f);
  EXPECT_EQ(graph::ComputeEdgeDiff(
                g, g.WithAdjacency(engine.PoisonedAdjacency()))
                .total(),
            0);
}

// After ANY flip sequence the incrementally maintained surrogate must
// equal a from-scratch recompute on the poisoned graph bitwise — the
// cache-vs-rebuild form of the delta-update identity.
TEST(EngineCacheProperty, IncrementalSurrogateMatchesRebuildBitwise) {
  const Graph g = TestGraph(602);
  for (const int layers : {1, 2, 3}) {
    core::PeegaEngine engine(g, EngineConfig(layers));
    ASSERT_TRUE(engine.RefreshScores().ok());
    Rng rng(43);
    for (int flip = 0; flip < 12; ++flip) {
      const int u = rng.UniformInt(0, g.num_nodes - 1);
      const int v =
          (u + 1 + rng.UniformInt(0, g.num_nodes - 2)) % g.num_nodes;
      engine.FlipEdge(u, v);
      const int node = rng.UniformInt(0, g.num_nodes - 1);
      const int dim = rng.UniformInt(0, g.features.cols() - 1);
      engine.FlipFeature(node, dim);
      // Refresh between some flips and batch others: both paths through
      // the pending-row machinery must land on the same caches.
      if (flip % 3 != 2) {
        ASSERT_TRUE(engine.RefreshScores().ok());
      }
    }
    ASSERT_TRUE(engine.RefreshScores().ok());
    const Matrix rebuilt = core::PeegaAttack::SurrogateRepresentation(
        engine.PoisonedAdjacency(), engine.features(), layers);
    EXPECT_EQ(linalg::MaxAbsDiff(engine.surrogate(), rebuilt), 0.0f)
        << "layers=" << layers;
  }
}

// The sparse poisoned adjacency emitted by the engine must stay
// symmetric, binary, and hollow under arbitrary flip sequences
// (including re-flips of the same edge).
TEST(EngineCacheProperty, PoisonedAdjacencyStaysSymmetricAndBinary) {
  const Graph g = TestGraph(603);
  core::PeegaEngine engine(g, EngineConfig());
  Rng rng(47);
  for (int flip = 0; flip < 40; ++flip) {
    const int u = rng.UniformInt(0, g.num_nodes - 1);
    const int v = (u + 1 + rng.UniformInt(0, g.num_nodes - 2)) % g.num_nodes;
    engine.FlipEdge(u, v);
    EXPECT_EQ(engine.HasEdge(u, v), engine.HasEdge(v, u));
  }
  ASSERT_TRUE(engine.RefreshScores().ok());
  const Graph poisoned = g.WithAdjacency(engine.PoisonedAdjacency())
                             .WithFeatures(engine.features());
  poisoned.CheckInvariants();
  const Matrix dense = poisoned.adjacency.ToDense();
  for (int u = 0; u < g.num_nodes; ++u) {
    EXPECT_EQ(dense(u, u), 0.0f);
    for (int v = u + 1; v < g.num_nodes; ++v) {
      EXPECT_EQ(dense(u, v), dense(v, u));
      EXPECT_TRUE(dense(u, v) == 0.0f || dense(u, v) == 1.0f);
      EXPECT_EQ(dense(u, v) > 0.5f, engine.HasEdge(u, v));
    }
  }
}

// The engine's closed-form gradients must equal the autograd tape's
// gradients exactly, and both must agree with a central finite
// difference of the (continuously relaxed) objective.
TEST(EngineCacheProperty, ClosedFormGradientsMatchTapeAndFiniteDifference) {
  const Graph g = TestGraph(604);
  core::PeegaAttack::Options peega;
  core::PeegaEngine::Config config = EngineConfig(peega.layers, peega.norm_p,
                                                  peega.lambda);
  core::PeegaEngine engine(g, config);
  // Perturb away from the clean graph so the self-view gradients are
  // non-trivial (on the clean graph every self norm is exactly zero).
  engine.FlipEdge(0, 5);
  engine.FlipFeature(3, 7);
  ASSERT_TRUE(engine.RefreshScores().ok());

  Matrix dense = engine.PoisonedAdjacency().ToDense();
  Matrix features = engine.features();

  // Tape reference gradients on the same poisoned state.
  const Matrix reference = core::PeegaAttack::SurrogateRepresentation(
      g.adjacency, g.features, peega.layers);
  std::vector<std::pair<int, int>> self_pairs;
  for (int v = 0; v < g.num_nodes; ++v) self_pairs.emplace_back(v, v);
  std::vector<std::pair<int, int>> neighbor_pairs;
  const auto& row_ptr = g.adjacency.row_ptr();
  const auto& col_idx = g.adjacency.col_idx();
  for (int v = 0; v < g.num_nodes; ++v) {
    for (int64_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
      neighbor_pairs.emplace_back(v, col_idx[k]);
    }
  }
  // Node creation order matters bitwise (backward runs in reverse
  // creation order), so build the graph in the same sequence as the
  // attacker's tape objective: self view first, then global view.
  autograd::Tape tape;
  autograd::Var a = tape.Input(dense, true);
  autograd::Var x = tape.Input(features, true);
  autograd::Var a_n = tape.GcnNormalizeDense(a);
  autograd::Var m_hat = x;
  for (int l = 0; l < peega.layers; ++l) m_hat = tape.MatMul(a_n, m_hat);
  autograd::Var self_view =
      tape.SumEdgePNorm(m_hat, reference, self_pairs, peega.norm_p);
  autograd::Var global_view =
      tape.SumEdgePNorm(m_hat, reference, neighbor_pairs, peega.norm_p);
  autograd::Var obj =
      tape.Add(self_view, tape.Scale(global_view, peega.lambda));
  tape.Backward(obj);

  float max_adj_diff = 0.0f;
  for (int u = 0; u < g.num_nodes; ++u) {
    for (int v = 0; v < g.num_nodes; ++v) {
      if (u == v) continue;
      max_adj_diff = std::max(
          max_adj_diff,
          std::fabs(engine.PairGradient(u, v) - a.grad()(u, v)));
    }
  }
  EXPECT_EQ(max_adj_diff, 0.0f);
  float max_feat_diff = 0.0f;
  for (int v = 0; v < g.num_nodes; ++v) {
    for (int j = 0; j < g.features.cols(); ++j) {
      max_feat_diff = std::max(
          max_feat_diff,
          std::fabs(engine.FeatureGradient(v, j) - x.grad()(v, j)));
    }
  }
  EXPECT_EQ(max_feat_diff, 0.0f);

  // Central finite differences of the relaxed objective. The objective
  // is evaluated in float, so h and the tolerance are coarse; the
  // gradcheck still pins sign and magnitude of the closed forms.
  core::PeegaAttack objective_eval{peega};
  const double h = 1e-3;
  Rng rng(53);
  for (int trial = 0; trial < 8; ++trial) {
    const int u = rng.UniformInt(0, g.num_nodes - 1);
    const int v = (u + 1 + rng.UniformInt(0, g.num_nodes - 2)) % g.num_nodes;
    Matrix plus = dense;
    Matrix minus = dense;
    plus(u, v) += h;
    plus(v, u) += h;
    minus(u, v) -= h;
    minus(v, u) -= h;
    const double fd = (objective_eval.Objective(g, plus, features) -
                       objective_eval.Objective(g, minus, features)) /
                      (2.0 * h);
    const double analytic =
        engine.PairGradient(u, v) + engine.PairGradient(v, u);
    EXPECT_NEAR(fd, analytic, 5e-2 * std::max(1.0, std::fabs(analytic)))
        << "edge (" << u << ", " << v << ")";
  }
  for (int trial = 0; trial < 8; ++trial) {
    const int v = rng.UniformInt(0, g.num_nodes - 1);
    const int j = rng.UniformInt(0, g.features.cols() - 1);
    Matrix plus = features;
    Matrix minus = features;
    plus(v, j) += h;
    minus(v, j) -= h;
    const double fd = (objective_eval.Objective(g, dense, plus) -
                       objective_eval.Objective(g, dense, minus)) /
                      (2.0 * h);
    const double analytic = engine.FeatureGradient(v, j);
    EXPECT_NEAR(fd, analytic, 5e-2 * std::max(1.0, std::fabs(analytic)))
        << "feature (" << v << ", " << j << ")";
  }
}

// Every score an engine exposes, as bits: feature gradients and scores
// when it attacks features, edge scores (u < v) when it attacks edges.
std::vector<uint32_t> ScoreBits(const core::PeegaEngine& engine,
                                const core::PeegaEngine::Config& config) {
  const auto bits = [](float x) { return std::bit_cast<uint32_t>(x); };
  const int n = engine.num_nodes();
  std::vector<uint32_t> out;
  if (config.attack_features) {
    for (int v = 0; v < n; ++v) {
      for (int j = 0; j < engine.num_features(); ++j) {
        out.push_back(bits(engine.FeatureGradient(v, j)));
        out.push_back(bits(engine.FeatureScore(v, j)));
      }
    }
  }
  if (config.attack_topology) {
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        out.push_back(bits(engine.EdgeScore(u, v)));
      }
    }
  }
  return out;
}

// Random flip steps, each followed by a refresh; after each, every
// moved score must be covered by the refresh's changed sets.
void ExpectChangedSetsCoverMovedScores(const Graph& g,
                                       const core::PeegaEngine::Config& config,
                                       uint64_t seed) {
  const int n = g.num_nodes;
  const int f = g.features.cols();
  core::PeegaEngine engine(g, config);
  ASSERT_TRUE(engine.RefreshScores().ok());
  // The full build changes every row.
  EXPECT_EQ(engine.changed_feature_rows().size(),
            config.attack_features ? static_cast<size_t>(n) : 0u);
  EXPECT_EQ(engine.changed_edge_rows().size(),
            config.attack_topology ? static_cast<size_t>(n) : 0u);
  std::vector<uint32_t> before = ScoreBits(engine, config);
  size_t smallest = static_cast<size_t>(n);
  Rng rng(seed);
  for (int step = 0; step < 6; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    for (int i = static_cast<int>(rng.UniformInt(1, 3)); i > 0; --i) {
      const bool edge = config.attack_topology &&
                        (!config.attack_features || rng.UniformInt(0, 1) == 0);
      const int u = static_cast<int>(rng.UniformInt(0, n - 1));
      if (edge) {
        engine.FlipEdge(u, static_cast<int>(
                               (u + 1 + rng.UniformInt(0, n - 2)) % n));
      } else {
        engine.FlipFeature(u, static_cast<int>(rng.UniformInt(0, f - 1)));
      }
    }
    ASSERT_TRUE(engine.RefreshScores().ok());
    std::vector<char> feature_row(static_cast<size_t>(n), 0);
    for (const int r : engine.changed_feature_rows()) {
      feature_row[static_cast<size_t>(r)] = 1;
    }
    std::vector<char> edge_row(static_cast<size_t>(n), 0);
    for (const int r : engine.changed_edge_rows()) {
      edge_row[static_cast<size_t>(r)] = 1;
    }
    if (config.attack_features) {
      smallest = std::min(smallest, engine.changed_feature_rows().size());
    }
    if (config.attack_topology) {
      smallest = std::min(smallest, engine.changed_edge_rows().size());
    }
    const std::vector<uint32_t> after = ScoreBits(engine, config);
    size_t k = 0;
    int moved = 0;
    if (config.attack_features) {
      for (int v = 0; v < n; ++v) {
        for (int j = 0; j < 2 * f; ++j, ++k) {
          if (before[k] == after[k]) continue;
          ++moved;
          ASSERT_TRUE(feature_row[static_cast<size_t>(v)])
              << "feature row " << v << " moved";
        }
      }
    }
    if (config.attack_topology) {
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v, ++k) {
          if (before[k] == after[k]) continue;
          ++moved;
          ASSERT_TRUE(edge_row[static_cast<size_t>(u)] ||
                      edge_row[static_cast<size_t>(v)])
              << "edge (" << u << ", " << v << ") moved";
        }
      }
    }
    EXPECT_GT(moved, 0);
    before = after;
  }
  // One hop per layer: at l = 1 the sets fall well short of all rows.
  if (config.layers == 1) {
    EXPECT_LT(smallest, static_cast<size_t>(n) / 2);
  }
  // A refresh with nothing pending changes nothing.
  ASSERT_TRUE(engine.RefreshScores().ok());
  EXPECT_TRUE(engine.changed_feature_rows().empty());
  EXPECT_TRUE(engine.changed_edge_rows().empty());
}

// What a refresh reports as changed must cover every score it moved: a
// feature row whose gradient or score changed bitwise is in
// changed_feature_rows(), and an edge pair whose score changed has an
// endpoint in changed_edge_rows(). The scan caches rescore only those.
TEST(EngineCacheProperty, ChangedRowSetsCoverEveryMovedScore) {
  graph::SyntheticConfig sbm;  // the golden replay's graph shape
  sbm.num_nodes = 60;
  sbm.num_classes = 3;
  sbm.feature_dim = 48;
  sbm.avg_degree = 4.0;
  Rng sbm_rng(11);
  const Graph graphs[] = {TestGraph(605), graph::MakeSynthetic(sbm, &sbm_rng)};
  const struct {
    const char* name;
    bool topology;
    bool features;
  } modes[] = {{"both", true, true}, {"tm", true, false}, {"fp", false, true}};
  uint64_t seed = 0;
  for (const Graph& g : graphs) {
    for (const auto& mode : modes) {
      for (const int layers : {1, 2, 3}) {
        SCOPED_TRACE(testing::Message() << g.num_nodes << " nodes, "
                                        << mode.name << ", l = " << layers);
        core::PeegaEngine::Config config = EngineConfig(layers);
        config.attack_topology = mode.topology;
        config.attack_features = mode.features;
        ExpectChangedSetsCoverMovedScores(g, config, ++seed);
      }
    }
  }
}


// Counts the entries of the engine's closed-form gradients that differ
// bitwise from the autograd tape's on the engine's poisoned state (the
// tape built as in ClosedFormGradientsMatchTapeAndFiniteDifference).
int GradientEntriesOffTape(const Graph& g, const core::PeegaEngine& engine,
                           int layers) {
  const Matrix reference =
      core::PeegaAttack::SurrogateRepresentation(g.adjacency, g.features,
                                                 layers);
  std::vector<std::pair<int, int>> self_pairs;
  for (int v = 0; v < g.num_nodes; ++v) self_pairs.emplace_back(v, v);
  std::vector<std::pair<int, int>> neighbor_pairs;
  const auto& row_ptr = g.adjacency.row_ptr();
  const auto& col_idx = g.adjacency.col_idx();
  for (int v = 0; v < g.num_nodes; ++v) {
    for (int64_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
      neighbor_pairs.emplace_back(v, col_idx[k]);
    }
  }
  autograd::Tape tape;
  autograd::Var a = tape.Input(engine.PoisonedAdjacency().ToDense(), true);
  autograd::Var x = tape.Input(engine.features(), true);
  autograd::Var a_n = tape.GcnNormalizeDense(a);
  autograd::Var m_hat = x;
  for (int l = 0; l < layers; ++l) m_hat = tape.MatMul(a_n, m_hat);
  autograd::Var self_view = tape.SumEdgePNorm(m_hat, reference, self_pairs, 2);
  autograd::Var global_view =
      tape.SumEdgePNorm(m_hat, reference, neighbor_pairs, 2);
  tape.Backward(tape.Add(self_view, tape.Scale(global_view, 0.01f)));
  int off = 0;
  for (int u = 0; u < g.num_nodes; ++u) {
    for (int v = 0; v < g.num_nodes; ++v) {
      if (u != v && std::bit_cast<uint32_t>(engine.PairGradient(u, v)) !=
                        std::bit_cast<uint32_t>(a.grad()(u, v))) {
        ++off;
      }
    }
    for (int j = 0; j < g.features.cols(); ++j) {
      if (std::bit_cast<uint32_t>(engine.FeatureGradient(u, j)) !=
          std::bit_cast<uint32_t>(x.grad()(u, j))) {
        ++off;
      }
    }
  }
  return off;
}

// The refresh recomputes only the rows a flip can move — G_N's rows and
// columns, the U_k dots over H's stored-entry lists, and the degree
// terms over the closed neighbourhood of E_{l-1}. After every
// incremental refresh, every closed-form gradient must still be the
// tape's float on the poisoned state, so no row the refresh skipped
// held a stale value.
TEST(EngineCacheProperty, IncrementalGradientsMatchTapeAfterEveryRefresh) {
  graph::SyntheticConfig sbm;
  sbm.num_nodes = 60;
  sbm.num_classes = 3;
  sbm.feature_dim = 48;
  sbm.avg_degree = 4.0;
  Rng sbm_rng(13);
  const Graph g = graph::MakeSynthetic(sbm, &sbm_rng);
  for (const int layers : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "l = " << layers);
    core::PeegaEngine engine(g, EngineConfig(layers));
    engine.FlipEdge(1, 2);
    ASSERT_TRUE(engine.RefreshScores().ok());  // the full build
    Rng rng(61 + layers);
    for (int round = 0; round < 6; ++round) {
      // One edge flip, one feature flip, or both in one refresh.
      if (round % 3 != 1) {
        const int u = rng.UniformInt(0, g.num_nodes - 1);
        const int v =
            (u + 1 + rng.UniformInt(0, g.num_nodes - 2)) % g.num_nodes;
        engine.FlipEdge(u, v);
      }
      if (round % 3 != 0) {
        engine.FlipFeature(rng.UniformInt(0, g.num_nodes - 1),
                           rng.UniformInt(0, g.features.cols() - 1));
      }
      ASSERT_TRUE(engine.RefreshScores().ok());
      EXPECT_EQ(GradientEntriesOffTape(g, engine, layers), 0)
          << "after round " << round;
    }
  }
}

// Every EdgeScore(u, v) reads G_N[v][u] from the engine's transposed
// copy. Each must be the bits of EdgeScore(v, u) and of the score
// composed from PairGradient, which reads G_N itself.
void ExpectEdgeScoresReadGnTranspose(const core::PeegaEngine& engine) {
  const int n = engine.num_nodes();
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      const float direction = engine.HasEdge(u, v) ? -1.0f : 1.0f;
      const float composed =
          direction * (engine.PairGradient(u, v) + engine.PairGradient(v, u));
      const uint32_t bits = std::bit_cast<uint32_t>(engine.EdgeScore(u, v));
      ASSERT_EQ(bits, std::bit_cast<uint32_t>(engine.EdgeScore(v, u)))
          << "(" << u << ", " << v << ")";
      ASSERT_EQ(bits, std::bit_cast<uint32_t>(composed))
          << "(" << u << ", " << v << ")";
    }
  }
}

// The transposed G_N is kept by the full build, by every incremental
// refresh (edge flips, feature flips, both) and by the full build after
// a checkpoint replay, which commits the flips before the first refresh.
// The replayed engine scores every pair as the incremental one does.
TEST(EngineCacheProperty, EdgeScoresReadTransposedGnAfterEveryRefresh) {
  graph::SyntheticConfig sbm;
  sbm.num_nodes = 60;
  sbm.num_classes = 3;
  sbm.feature_dim = 48;
  sbm.avg_degree = 4.0;
  Rng sbm_rng(17);
  const Graph g = graph::MakeSynthetic(sbm, &sbm_rng);
  for (const int layers : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "l = " << layers);
    core::PeegaEngine engine(g, EngineConfig(layers));
    ASSERT_TRUE(engine.RefreshScores().ok());  // the full build
    ExpectEdgeScoresReadGnTranspose(engine);
    std::vector<std::pair<int, int>> edges;
    std::vector<std::pair<int, int>> bits;
    Rng rng(71 + layers);
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      if (round % 3 != 1) {
        const int u = rng.UniformInt(0, g.num_nodes - 1);
        const int v =
            (u + 1 + rng.UniformInt(0, g.num_nodes - 2)) % g.num_nodes;
        engine.FlipEdge(u, v);
        edges.emplace_back(u, v);
      }
      if (round % 3 != 0) {
        bits.emplace_back(rng.UniformInt(0, g.num_nodes - 1),
                          rng.UniformInt(0, g.features.cols() - 1));
        engine.FlipFeature(bits.back().first, bits.back().second);
      }
      ASSERT_TRUE(engine.RefreshScores().ok());
      ExpectEdgeScoresReadGnTranspose(engine);
    }
    core::PeegaEngine replayed(g, EngineConfig(layers));
    for (const auto& [u, v] : edges) replayed.FlipEdge(u, v);
    for (const auto& [v, j] : bits) replayed.FlipFeature(v, j);
    ASSERT_TRUE(replayed.RefreshScores().ok());
    ExpectEdgeScoresReadGnTranspose(replayed);
    for (int u = 0; u < g.num_nodes; ++u) {
      for (int v = u + 1; v < g.num_nodes; ++v) {
        ASSERT_EQ(std::bit_cast<uint32_t>(replayed.EdgeScore(u, v)),
                  std::bit_cast<uint32_t>(engine.EdgeScore(u, v)))
            << "(" << u << ", " << v << ")";
      }
    }
  }
}

// Ascending rows of a 0/1 mask.
std::vector<int> MaskRows(const std::vector<char>& mask) {
  std::vector<int> rows;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r]) rows.push_back(static_cast<int>(r));
  }
  return rows;
}

// The changed-row lists against a mask expansion written from their
// definitions, over the dense poisoned adjacency A kept in step with the
// flips. P holds both endpoints of every edge flip and their neighbours
// just before it; d[0] holds the feature-flipped rows, d[k] is
// N[d[k-1]] ∪ P over A + I, e[0] = d[l] and e[k] = N[e[k-1]]. The
// feature rows are e[l]; the edge rows hold e[l-1] and lie inside e[l]
// (a degree term moves only next to e[l-1]). Batches of 2-5 flips.
TEST(EngineCacheProperty, ChangedRowListsMatchBruteForceExpansion) {
  const Graph g = TestGraph(607);
  const int n = g.num_nodes;
  const int f = g.features.cols();
  std::vector<int> targets;
  for (int v = 0; v < n; v += 3) targets.push_back(v);
  targets.push_back(0);  // a repeat counts twice in the self view
  const struct {
    const char* name;
    bool topology;
    bool features;
  } modes[] = {{"both", true, true}, {"tm", true, false}, {"fp", false, true}};
  uint64_t seed = 40;
  for (const auto& mode : modes) {
    for (const int layers : {1, 2, 3}) {
      for (const bool targeted : {false, true}) {
        SCOPED_TRACE(testing::Message() << mode.name << ", l = " << layers
                                        << (targeted ? ", targeted" : ""));
        core::PeegaEngine::Config config = EngineConfig(layers);
        config.attack_topology = mode.topology;
        config.attack_features = mode.features;
        if (targeted) config.target_nodes = targets;
        core::PeegaEngine engine(g, config);
        ASSERT_TRUE(engine.RefreshScores().ok());
        Matrix adjacency = g.adjacency.ToDense();
        const auto expand = [&](const std::vector<char>& mask) {
          std::vector<char> out = mask;
          for (int r = 0; r < n; ++r) {
            if (!mask[static_cast<size_t>(r)]) continue;
            for (int c = 0; c < n; ++c) {
              if (adjacency(r, c) > 0.5f) out[static_cast<size_t>(c)] = 1;
            }
          }
          return out;
        };
        Rng rng(++seed);
        for (int step = 0; step < 4; ++step) {
          SCOPED_TRACE(testing::Message() << "step " << step);
          std::vector<char> pending_a(static_cast<size_t>(n), 0);
          std::vector<char> pending_h0(static_cast<size_t>(n), 0);
          for (int i = static_cast<int>(rng.UniformInt(2, 5)); i > 0; --i) {
            const bool edge =
                mode.topology && (!mode.features || rng.UniformInt(0, 1) == 0);
            const int u = static_cast<int>(rng.UniformInt(0, n - 1));
            if (edge) {
              const int v =
                  static_cast<int>((u + 1 + rng.UniformInt(0, n - 2)) % n);
              for (const int a : {u, v}) {
                pending_a[static_cast<size_t>(a)] = 1;
                for (int c = 0; c < n; ++c) {
                  if (adjacency(a, c) > 0.5f) pending_a[static_cast<size_t>(c)] = 1;
                }
              }
              attack::FlipEdge(&adjacency, u, v);
              engine.FlipEdge(u, v);
            } else {
              pending_h0[static_cast<size_t>(u)] = 1;
              engine.FlipFeature(u, static_cast<int>(rng.UniformInt(0, f - 1)));
            }
          }
          ASSERT_TRUE(engine.RefreshScores().ok());
          std::vector<char> level = pending_h0;
          for (int k = 1; k <= layers; ++k) {
            level = expand(level);
            for (int r = 0; r < n; ++r) {
              if (pending_a[static_cast<size_t>(r)]) level[static_cast<size_t>(r)] = 1;
            }
          }
          for (int k = 1; k < layers; ++k) level = expand(level);
          const std::vector<char> e_before_last = level;  // e[l-1]
          const std::vector<char> e_last = expand(level);  // e[l]

          if (mode.features) {
            EXPECT_EQ(engine.changed_feature_rows(), MaskRows(e_last));
          } else {
            EXPECT_TRUE(engine.changed_feature_rows().empty());
          }
          const std::vector<int>& edge_rows = engine.changed_edge_rows();
          if (!mode.topology) {
            EXPECT_TRUE(edge_rows.empty());
            continue;
          }
          EXPECT_TRUE(std::adjacent_find(edge_rows.begin(), edge_rows.end(),
                                         std::greater_equal<int>()) ==
                      edge_rows.end())
              << "edge rows not strictly ascending";
          for (const int r : MaskRows(e_before_last)) {
            EXPECT_TRUE(std::binary_search(edge_rows.begin(), edge_rows.end(), r))
                << "e[l-1] row " << r << " missing";
          }
          for (const int r : edge_rows) {
            EXPECT_TRUE(e_last[static_cast<size_t>(r)])
                << "edge row " << r << " outside e[l]";
          }
        }
      }
    }
  }
}

// The sentinel checks only the terms a refresh rewrote, and takes the
// exact objective near float overflow. On a ring whose nodes all hold
// the same feature row, A_n X = X and the clean objective is exactly 0;
// zeroing the set bits, three per refresh, grows both views. Scaling
// the features by a power of two B scales every cached float and
// double term exactly, so each objective is B times the one at B = 1
// until a float view, its lambda product or their sum overflows. B is
// picked from a B = 1 run of the same flips so that a late refresh
// overflows while every term and cached matrix stays finite. After
// every refresh the status must be OK exactly when the exact objective
// is finite: the latch fires on the refresh that overflows, not later
// and not before.
TEST(EngineCacheProperty, SentinelLatchesExactlyWhenTheObjectiveOverflows) {
  const int n = 60;
  const int f = 16;
  Graph clean;
  clean.num_nodes = n;
  clean.num_classes = 1;
  std::vector<std::pair<int, int>> ring;
  for (int v = 0; v < n; ++v) ring.emplace_back(v, (v + 1) % n);
  clean.adjacency = graph::AdjacencyFromEdges(n, ring);
  clean.features = Matrix(n, f);
  clean.labels.assign(static_cast<size_t>(n), 0);
  std::vector<std::pair<int, int>> set_bits;
  for (int v = 0; v < n; ++v) {
    for (int j = 0; j < f / 2; ++j) {
      clean.features(v, j) = 1.0f;
      set_bits.emplace_back(v, j);
    }
  }
  std::vector<int> every_node_one_twice(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) every_node_one_twice[static_cast<size_t>(v)] = v;
  every_node_one_twice.push_back(n / 2);
  const struct {
    float lambda;
    bool targeted;
  } cases[] = {{0.0f, false}, {0.01f, false}, {-0.01f, false},
               {8.0f, false},  {0.0f, true},   {0.01f, true}};
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "lambda " << c.lambda
                                    << (c.targeted ? ", targeted" : ""));
    core::PeegaEngine::Config config = EngineConfig(1, 2, c.lambda);
    config.attack_topology = false;
    if (c.targeted) config.target_nodes = every_node_one_twice;
    // Runs the flips on `g`; `step(ok, objective)` after every refresh
    // returns false to stop.
    const auto run = [&](const Graph& g, const auto& step) {
      core::PeegaEngine engine(g, config);
      const auto refresh = [&] {
        const bool ok = engine.RefreshScores().ok();
        return step(ok, engine.Objective());
      };
      if (!refresh()) return;
      for (size_t i = 0; i + 3 <= set_bits.size(); i += 3) {
        for (size_t b = i; b < i + 3; ++b) {
          engine.FlipFeature(set_bits[b].first, set_bits[b].second);
        }
        if (!refresh()) return;
      }
    };
    std::vector<double> unit;
    run(clean, [&](bool ok, double objective) {
      EXPECT_TRUE(ok);
      unit.push_back(std::fabs(objective));
      return true;
    });
    const double peak = *std::max_element(unit.begin(), unit.end());
    const double scale = std::exp2(std::ceil(
        std::log2(2.0 * std::numeric_limits<float>::max() / peak)));
    ASSERT_EQ(unit[0], 0.0);
    Graph g = clean;
    for (int64_t i = 0; i < g.features.size(); ++i) {
      g.features.data()[i] *= static_cast<float>(scale);
    }
    int refresh = 0;
    int latched_at = -1;
    run(g, [&](bool ok, double objective) {
      EXPECT_EQ(ok, std::isfinite(objective))
          << "refresh " << refresh << ", objective " << objective;
      if (!ok) latched_at = refresh;
      ++refresh;
      return ok;
    });
    EXPECT_GT(latched_at, 0) << "the float objective never overflowed";
  }
}

// The final refresh of a campaign updates the objective alone: its
// objective is bitwise the full refresh's, and the engine then refuses
// score work.
TEST(EngineCacheProperty, ObjectiveOnlyRefreshMatchesFullRefresh) {
  const Graph g = TestGraph(611);
  for (const bool topology : {true, false}) {
    SCOPED_TRACE(topology ? "both" : "fp");
    core::PeegaEngine::Config config = EngineConfig();
    config.attack_topology = topology;
    core::PeegaEngine full(g, config);
    core::PeegaEngine objective_only(g, config);
    for (core::PeegaEngine* engine : {&full, &objective_only}) {
      ASSERT_TRUE(engine->RefreshScores().ok());
      engine->FlipFeature(3, 1);
      engine->FlipFeature(40, 0);
      if (topology) engine->FlipEdge(5, 17);
    }
    ASSERT_TRUE(full.RefreshScores().ok());
    ASSERT_TRUE(objective_only.RefreshObjective().ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(full.Objective()),
              std::bit_cast<uint64_t>(objective_only.Objective()));
    EXPECT_DEATH((void)objective_only.changed_feature_rows(),
                 "holds no scores");
    EXPECT_DEATH((void)objective_only.RefreshScores(), "holds no scores");
    EXPECT_DEATH(objective_only.FlipFeature(3, 1), "holds no scores");
  }
}

// Every block of scores the scan reads, bit for bit against the scalar
// score it replaces: each row's EdgeScoreRow over b > a and over a
// shorter run from an unaligned start, EdgeScoreColumn down every column
// b over a < b in runs of 1-40 rows, and FeatureScoreRow over whole rows
// and shorter runs, at feature costs 1 and 0.7. Edges in a run have
// their direction applied.
void ExpectBlockScoresEqualScalarScores(const core::PeegaEngine& engine) {
  const auto bits = [](float x) { return std::bit_cast<uint32_t>(x); };
  const int n = engine.num_nodes();
  const int f = engine.num_features();
  std::vector<float> out(static_cast<size_t>(std::max(n, f)));
  for (int a = 0; a < n; ++a) {
    for (const int b0 : {a + 1, a + 1 + a % 7}) {
      const int b1 = std::max(b0, n - a % 5);
      engine.EdgeScoreRow(a, b0, b1, out.data());
      for (int b = b0; b < b1; ++b) {
        ASSERT_EQ(bits(out[static_cast<size_t>(b - b0)]),
                  bits(engine.EdgeScore(a, b)))
            << "row " << a << " run [" << b0 << ", " << b1 << "), b " << b;
      }
    }
  }
  for (int b = 1; b < n; ++b) {
    for (int a0 = 0; a0 < b;) {
      const int a1 = std::min(b, a0 + 1 + (a0 + b) % 40);
      engine.EdgeScoreColumn(b, a0, a1, out.data());
      for (int a = a0; a < a1; ++a) {
        ASSERT_EQ(bits(out[static_cast<size_t>(a - a0)]),
                  bits(engine.EdgeScore(a, b)))
            << "column " << b << " run [" << a0 << ", " << a1 << "), a " << a;
      }
      a0 = a1;
    }
  }
  for (int v = 0; v < n; ++v) {
    for (const int j0 : {0, v % 9}) {
      const int j1 = std::max(j0, f - v % 4);
      for (const float beta : {1.0f, 0.7f}) {
        engine.FeatureScoreRow(v, j0, j1, beta, out.data());
        for (int j = j0; j < j1; ++j) {
          ASSERT_EQ(bits(out[static_cast<size_t>(j - j0)]),
                    bits(engine.FeatureScore(v, j) / beta))
              << "feature row " << v << " run [" << j0 << ", " << j1
              << "), j " << j << ", beta " << beta;
        }
      }
    }
  }
}

// The scan's blocks after the full build and after incremental refreshes
// of edge flips, of feature flips and of both, for l = 1, 2 and 3.
TEST(EngineCacheProperty, BlockScoresEqualScalarScoresAfterEveryRefresh) {
  graph::SyntheticConfig sbm;
  sbm.num_nodes = 60;
  sbm.num_classes = 3;
  sbm.feature_dim = 48;
  sbm.avg_degree = 4.0;
  Rng sbm_rng(19);
  const Graph g = graph::MakeSynthetic(sbm, &sbm_rng);
  for (const int layers : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "l = " << layers);
    core::PeegaEngine engine(g, EngineConfig(layers));
    ASSERT_TRUE(engine.RefreshScores().ok());  // the full build
    ExpectBlockScoresEqualScalarScores(engine);
    Rng rng(83 + layers);
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      if (round % 3 != 1) {
        const int u = rng.UniformInt(0, g.num_nodes - 1);
        const int v =
            (u + 1 + rng.UniformInt(0, g.num_nodes - 2)) % g.num_nodes;
        engine.FlipEdge(u, v);
      }
      if (round % 3 != 0) {
        engine.FlipFeature(rng.UniformInt(0, g.num_nodes - 1),
                           rng.UniformInt(0, g.features.cols() - 1));
      }
      ASSERT_TRUE(engine.RefreshScores().ok());
      ExpectBlockScoresEqualScalarScores(engine);
    }
  }
}

}  // namespace
}  // namespace repro
