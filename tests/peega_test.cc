#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "attack/random_attack.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "linalg/ops.h"
#include "nn/gcn.h"
#include "nn/trainer.h"
#include "status/status.h"

namespace repro::core {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using graph::Graph;
using linalg::Matrix;
using linalg::Rng;

Graph SmallGraph(uint64_t seed = 1, double scale = 0.3) {
  Rng rng(seed);
  return graph::MakeCoraLike(&rng, scale);
}

double GcnAccuracyOn(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  nn::Gcn gcn(g.features.cols(), g.num_classes, nn::Gcn::Options(), &rng);
  nn::TrainOptions options;
  return nn::TrainNodeClassifier(&gcn, g, options, &rng).test_accuracy;
}

TEST(SurrogateTest, MatchesManualTwoLayerPropagation) {
  const Graph g = SmallGraph(2, 0.2);
  const auto a_n = graph::GcnNormalize(g.adjacency);
  const Matrix expected =
      linalg::SpMM(a_n, linalg::SpMM(a_n, g.features));
  const Matrix got =
      PeegaAttack::SurrogateRepresentation(g.adjacency, g.features, 2);
  EXPECT_LT(linalg::MaxAbsDiff(got, expected), 1e-5f);
}

TEST(SurrogateTest, OneLayerIsSinglePropagation) {
  const Graph g = SmallGraph(3, 0.2);
  const auto a_n = graph::GcnNormalize(g.adjacency);
  const Matrix expected = linalg::SpMM(a_n, g.features);
  const Matrix got =
      PeegaAttack::SurrogateRepresentation(g.adjacency, g.features, 1);
  EXPECT_LT(linalg::MaxAbsDiff(got, expected), 1e-5f);
}

class PeegaContract : public ::testing::Test {
 protected:
  AttackResult Run(const Graph& g, const PeegaAttack::Options& peega,
                   AttackOptions options) {
    PeegaAttack attacker(peega);
    Rng rng(99);
    return attacker.Attack(g, options, &rng);
  }
};

TEST_F(PeegaContract, BudgetAndInvariants) {
  const Graph g = SmallGraph(4);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  const AttackResult result = Run(g, PeegaAttack::Options(), options);
  result.poisoned.CheckInvariants();
  const int budget = attack::ComputeBudget(g, 0.1);
  const auto diff = graph::ComputeEdgeDiff(g, result.poisoned);
  const int64_t feature_diff =
      graph::FeatureDiffCount(g, result.poisoned);
  EXPECT_LE(diff.total() + feature_diff, budget);
  EXPECT_GT(diff.total() + feature_diff, 0);
}

TEST_F(PeegaContract, ObjectiveIncreasesWithBudget) {
  const Graph g = SmallGraph(5, 0.25);
  PeegaAttack attacker{PeegaAttack::Options()};
  AttackOptions small;
  small.perturbation_rate = 0.03;
  AttackOptions large;
  large.perturbation_rate = 0.12;
  Rng rng1(1), rng2(1);
  const AttackResult small_result = attacker.Attack(g, small, &rng1);
  const AttackResult large_result = attacker.Attack(g, large, &rng2);
  const double clean_obj =
      attacker.Objective(g, g.adjacency.ToDense(), g.features);
  const double small_obj = attacker.Objective(
      g, small_result.poisoned.adjacency.ToDense(),
      small_result.poisoned.features);
  const double large_obj = attacker.Objective(
      g, large_result.poisoned.adjacency.ToDense(),
      large_result.poisoned.features);
  // The self view vanishes on the unmodified graph, so the clean
  // objective is exactly lambda * (global-view baseline); with lambda = 0
  // it must be zero.
  PeegaAttack::Options self_only;
  self_only.lambda = 0.0f;
  EXPECT_NEAR(PeegaAttack(self_only).Objective(g, g.adjacency.ToDense(),
                                               g.features),
              0.0, 1e-3);
  EXPECT_GT(small_obj, clean_obj);
  EXPECT_GT(large_obj, small_obj);
}

TEST_F(PeegaContract, BlackBoxIgnoresLabels) {
  // Permuting labels must not change PEEGA's output at all.
  const Graph g = SmallGraph(6, 0.25);
  Graph relabeled = g;
  for (int v = 0; v < g.num_nodes; ++v) {
    relabeled.labels[v] = (g.labels[v] + 1) % g.num_classes;
  }
  AttackOptions options;
  options.perturbation_rate = 0.08;
  const AttackResult a = Run(g, PeegaAttack::Options(), options);
  const AttackResult b = Run(relabeled, PeegaAttack::Options(), options);
  EXPECT_EQ(a.poisoned.EdgeList(), b.poisoned.EdgeList());
  EXPECT_LT(linalg::MaxAbsDiff(a.poisoned.features, b.poisoned.features),
            1e-6f);
}

TEST_F(PeegaContract, TopologyOnlyModeNeverTouchesFeatures) {
  const Graph g = SmallGraph(7, 0.25);
  PeegaAttack::Options peega;
  peega.mode = PeegaAttack::Mode::kTopologyOnly;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  const AttackResult result = Run(g, peega, options);
  EXPECT_EQ(graph::FeatureDiffCount(g, result.poisoned), 0);
  EXPECT_GT(result.edge_modifications, 0);
}

TEST_F(PeegaContract, FeatureOnlyModeNeverTouchesEdges) {
  const Graph g = SmallGraph(8, 0.25);
  PeegaAttack::Options peega;
  peega.mode = PeegaAttack::Mode::kFeaturesOnly;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  const AttackResult result = Run(g, peega, options);
  EXPECT_EQ(graph::ComputeEdgeDiff(g, result.poisoned).total(), 0);
  EXPECT_GT(result.feature_modifications, 0);
}

TEST_F(PeegaContract, FeatureCostReducesFeatureFlips) {
  const Graph g = SmallGraph(9, 0.25);
  PeegaAttack::Options peega;
  AttackOptions cheap;
  cheap.perturbation_rate = 0.08;
  cheap.feature_cost = 0.1;
  AttackOptions expensive = cheap;
  expensive.feature_cost = 1.0;
  const AttackResult cheap_result = Run(g, peega, cheap);
  const AttackResult expensive_result = Run(g, peega, expensive);
  EXPECT_GE(cheap_result.feature_modifications,
            expensive_result.feature_modifications);
}

TEST_F(PeegaContract, AttackerNodeSubsetRespected) {
  const Graph g = SmallGraph(10, 0.25);
  Rng subset_rng(20);
  AttackOptions options;
  options.perturbation_rate = 0.06;
  options.attacker_nodes = subset_rng.Sample(g.num_nodes, g.num_nodes / 4);
  std::vector<char> controlled(g.num_nodes, 0);
  for (int v : options.attacker_nodes) controlled[v] = 1;
  const AttackResult result = Run(g, PeegaAttack::Options(), options);
  const Graph& p = result.poisoned;
  for (const auto& [u, v] : p.EdgeList()) {
    if (!g.HasEdge(u, v)) {
      EXPECT_TRUE(controlled[u] || controlled[v]);
    }
  }
  for (int v = 0; v < g.num_nodes; ++v) {
    if (controlled[v]) continue;
    for (int j = 0; j < g.features.cols(); ++j) {
      EXPECT_FLOAT_EQ(p.features(v, j), g.features(v, j));
    }
  }
}

TEST_F(PeegaContract, NormAndLayerVariantsRun) {
  const Graph g = SmallGraph(11, 0.2);
  AttackOptions options;
  options.perturbation_rate = 0.05;
  for (int p : {1, 2, 3}) {
    PeegaAttack::Options peega;
    peega.norm_p = p;
    const AttackResult result = Run(g, peega, options);
    EXPECT_GT(result.edge_modifications + result.feature_modifications, 0)
        << "p=" << p;
  }
  for (int layers : {1, 3, 4}) {
    PeegaAttack::Options peega;
    peega.layers = layers;
    const AttackResult result = Run(g, peega, options);
    EXPECT_GT(result.edge_modifications + result.feature_modifications, 0)
        << "l=" << layers;
  }
}

TEST_F(PeegaContract, NoOscillationNetDiffEqualsBudgetSpent) {
  // Regression: the greedy loop must never re-flip a frozen entry, so
  // the net graph diff equals the number of committed modifications and
  // no flip repeats. With the scan caches that means a flipped row must
  // be rescanned, not served from the cache. Features-only and
  // both-kinds campaigns, PEEGA (batch 1) and PEEGA-Batch.
  const Graph g = SmallGraph(21, 0.25);
  AttackOptions options;
  options.perturbation_rate = 0.25;
  options.feature_cost = 0.1;
  for (const PeegaAttack::Mode mode :
       {PeegaAttack::Mode::kFeaturesOnly,
        PeegaAttack::Mode::kTopologyAndFeatures}) {
    for (const int batch : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode)
                                      << " batch " << batch);
      PeegaBatchAttack::Options batch_options;
      batch_options.peega.mode = mode;
      batch_options.batch_size = batch;
      Rng rng(99);
      const AttackResult result =
          PeegaBatchAttack(batch_options).Attack(g, options, &rng);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_GT(result.feature_modifications, 0);
      const auto diff = graph::ComputeEdgeDiff(g, result.poisoned);
      const int64_t feature_diff =
          graph::FeatureDiffCount(g, result.poisoned);
      EXPECT_EQ(diff.total() + feature_diff,
                result.edge_modifications + result.feature_modifications);
      // Edge flips come from the scan as (a < b), so a triple names one.
      std::vector<std::tuple<bool, int, int>> seen;
      for (const attack::Flip& flip : result.flips) {
        seen.emplace_back(flip.is_feature, flip.a, flip.b);
      }
      std::sort(seen.begin(), seen.end());
      EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
    }
  }
}

// A batch larger than every row (and than all candidates together) takes
// the whole ranked list each iteration: the same flips as the smallest
// batch that holds every candidate, and no allocation sized by the batch.
TEST_F(PeegaContract, OversizedBatchEqualsAllCandidatesBatch) {
  const Graph g = SmallGraph(24, 0.1);
  AttackOptions options;
  options.perturbation_rate = 0.2;
  options.feature_cost = 0.5;
  const int64_t n = g.num_nodes;
  const int64_t all_candidates = n * (n - 1) / 2 + n * g.features.cols();
  ASSERT_LT(all_candidates, std::numeric_limits<int>::max());
  std::vector<AttackResult> results;
  for (const int batch : {static_cast<int>(all_candidates),
                          std::numeric_limits<int>::max()}) {
    PeegaBatchAttack::Options batch_options;
    batch_options.batch_size = batch;
    Rng rng(99);
    results.push_back(PeegaBatchAttack(batch_options).Attack(g, options, &rng));
    ASSERT_TRUE(results.back().status.ok())
        << results.back().status.ToString();
  }
  ASSERT_GT(results[0].flips.size(), 0u);
  EXPECT_EQ(results[0].flips, results[1].flips);
  EXPECT_EQ(results[0].final_objective, results[1].final_objective);
}

// Out-of-range options are rejected before any work, through both
// attackers, with INVALID_INPUT naming the field and the value and the
// clean graph returned; none aborts the process.
TEST(PeegaOptionsTest, InvalidOptionsAreRejectedNotAborted) {
  const Graph g = SmallGraph(4, 0.1);
  using BatchOptions = PeegaBatchAttack::Options;
  struct Row {
    std::string message;  // "<field> = <value>"
    std::function<void(BatchOptions*)> set;
    bool batch_only;  // PeegaAttack has no batch_size
  };
  const std::vector<Row> rows = {
      {"layers = 0", [](BatchOptions* o) { o->peega.layers = 0; }, false},
      {"norm_p = 0", [](BatchOptions* o) { o->peega.norm_p = 0; }, false},
      {"batch_size = -3", [](BatchOptions* o) { o->batch_size = -3; }, true},
      {"batch_size = 0", [](BatchOptions* o) { o->batch_size = 0; }, true},
      {"checkpoint_every = 0",
       [](BatchOptions* o) { o->peega.checkpoint_every = 0; }, false},
      {"target_nodes = -1",
       [](BatchOptions* o) { o->peega.target_nodes = {0, -1}; }, false},
      {"target_nodes = " + std::to_string(g.num_nodes),
       [&](BatchOptions* o) { o->peega.target_nodes = {g.num_nodes}; },
       false},
  };
  AttackOptions options;
  options.perturbation_rate = 0.05;
  for (const Row& row : rows) {
    BatchOptions batch;
    row.set(&batch);
    for (const bool use_batch : {false, true}) {
      if (row.batch_only && !use_batch) continue;
      SCOPED_TRACE(row.message + (use_batch ? " (PEEGA-Batch)" : " (PEEGA)"));
      Rng rng(5);
      const AttackResult result =
          use_batch ? PeegaBatchAttack(batch).Attack(g, options, &rng)
                    : PeegaAttack(batch.peega).Attack(g, options, &rng);
      EXPECT_EQ(result.status.code(), status::Code::kInvalidInput)
          << result.status.ToString();
      EXPECT_NE(result.status.message().find(row.message), std::string::npos)
          << result.status.ToString();
      EXPECT_TRUE(result.flips.empty());
      EXPECT_EQ(graph::ComputeEdgeDiff(g, result.poisoned).total(), 0);
      EXPECT_EQ(graph::FeatureDiffCount(g, result.poisoned), 0);
    }
  }
}

TEST(PeegaEffectTest, BeatsRandomAttackOnGcn) {
  const Graph g = SmallGraph(12, 0.5);
  AttackOptions options;
  options.perturbation_rate = 0.15;

  PeegaAttack peega;
  Rng rng1(30);
  const AttackResult peega_result = peega.Attack(g, options, &rng1);

  attack::RandomAttack random_attack;
  Rng rng2(31);
  const AttackResult random_result =
      random_attack.Attack(g, options, &rng2);

  const double clean_acc = GcnAccuracyOn(g, 200);
  const double peega_acc = GcnAccuracyOn(peega_result.poisoned, 200);
  const double random_acc = GcnAccuracyOn(random_result.poisoned, 200);
  EXPECT_LT(peega_acc, clean_acc - 0.02);
  EXPECT_LT(peega_acc, random_acc + 0.02);
}

TEST(PeegaEffectTest, TargetedAttackConcentratesOnVictims) {
  // The targeted extension must hurt the chosen victims more than an
  // untargeted attack of the same budget does.
  const Graph g = SmallGraph(40, 0.4);
  Rng victim_rng(41);
  const std::vector<int> victims = victim_rng.Sample(g.num_nodes, 10);

  AttackOptions options;
  options.perturbation_rate = 0.05;
  PeegaAttack::Options untargeted_options;
  PeegaAttack::Options targeted_options;
  targeted_options.target_nodes = victims;
  PeegaAttack untargeted(untargeted_options);
  PeegaAttack targeted(targeted_options);
  Rng rng1(42), rng2(42);
  const Graph untargeted_poison =
      untargeted.Attack(g, options, &rng1).poisoned;
  const Graph targeted_poison = targeted.Attack(g, options, &rng2).poisoned;

  auto victim_accuracy = [&](const Graph& poisoned) {
    Rng rng(43);
    nn::Gcn gcn(g.features.cols(), g.num_classes, nn::Gcn::Options(),
                &rng);
    nn::TrainOptions train;
    nn::TrainNodeClassifier(&gcn, poisoned, train, &rng);
    const auto preds = nn::PredictLabels(&gcn, poisoned, &rng);
    return graph::Accuracy(preds, g.labels, victims);
  };
  EXPECT_LE(victim_accuracy(targeted_poison),
            victim_accuracy(untargeted_poison));
  // And the targeted attack only modifies edges near its victims'
  // 2-hop influence zone (weak structural check: every flip touches a
  // victim within distance 2 in the clean graph).
  std::vector<char> near(g.num_nodes, 0);
  for (int v : victims) {
    near[v] = 1;
    for (int u : g.Neighbors(v)) {
      near[u] = 1;
      for (int w : g.Neighbors(u)) near[w] = 1;
    }
  }
  int near_flips = 0, total_flips = 0;
  for (const auto& [u, v] : targeted_poison.EdgeList()) {
    if (!g.HasEdge(u, v)) {
      ++total_flips;
      if (near[u] || near[v]) ++near_flips;
    }
  }
  if (total_flips > 0) {
    EXPECT_GT(static_cast<double>(near_flips) / total_flips, 0.7);
  }
}

TEST(PeegaEffectTest, AddsMostlyInterClassEdges) {
  const Graph g = SmallGraph(13, 0.3);
  AttackOptions options;
  options.perturbation_rate = 0.15;
  PeegaAttack attacker;
  Rng rng(32);
  const AttackResult result = attacker.Attack(g, options, &rng);
  const auto diff = graph::ComputeEdgeDiff(g, result.poisoned);
  EXPECT_GT(diff.add_diff, diff.add_same);
}

}  // namespace
}  // namespace repro::core
