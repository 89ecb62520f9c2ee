#include <cmath>

#include <gtest/gtest.h>

#include "core/gnat.h"
#include "core/peega.h"
#include "debug/failpoints.h"
#include "defense/model_defenders.h"
#include "graph/generators.h"
#include "linalg/ops.h"

namespace repro::core {
namespace {

using graph::Graph;
using linalg::Matrix;
using linalg::Rng;

Graph SmallGraph(uint64_t seed = 1, double scale = 0.3) {
  Rng rng(seed);
  return graph::MakeCoraLike(&rng, scale);
}

Graph PoisonedGraph(const Graph& g, double rate = 0.15) {
  PeegaAttack attacker;
  attack::AttackOptions options;
  options.perturbation_rate = rate;
  Rng rng(77);
  return attacker.Attack(g, options, &rng).poisoned;
}

TEST(GnatGraphsTest, TopologyGraphIsKHop) {
  const auto adjacency =
      graph::AdjacencyFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto two_hop = GnatDefender::BuildTopologyGraph(adjacency, 2);
  EXPECT_GT(two_hop.At(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(two_hop.At(0, 3), 0.0f);
  const auto one_hop = GnatDefender::BuildTopologyGraph(adjacency, 1);
  EXPECT_LT(linalg::MaxAbsDiff(one_hop.ToDense(), adjacency.ToDense()),
            1e-6f);
}

TEST(GnatGraphsTest, FeatureGraphConnectsSimilarNodes) {
  // Two feature clusters; k = 1 must connect within clusters only.
  const Matrix x = Matrix::FromRows(
      {{1, 1, 0, 0}, {1, 1, 0, 0}, {0, 0, 1, 1}, {0, 0, 1, 1}});
  const auto fg = graph::FeatureKnnGraph(x, 1, 1e-6f);
  EXPECT_GT(fg.At(0, 1), 0.0f);
  EXPECT_GT(fg.At(2, 3), 0.0f);
  EXPECT_FLOAT_EQ(fg.At(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(fg.At(1, 3), 0.0f);
  // Symmetric.
  EXPECT_LT(linalg::MaxAbsDiff(fg.ToDense(), fg.Transposed().ToDense()),
            1e-6f);
}

TEST(GnatGraphsTest, FeatureGraphEmptyForIdentityFeatures) {
  const Matrix identity = Matrix::Identity(5);
  const auto fg = graph::FeatureKnnGraph(identity, 3, 1e-6f);
  EXPECT_EQ(fg.nnz(), 0);
}

TEST(GnatGraphsTest, FeatureGraphEmptyForKZero) {
  const Matrix x = Matrix::FromRows({{1, 0}, {1, 0}});
  EXPECT_EQ(graph::FeatureKnnGraph(x, 0, 1e-6f).nnz(), 0);
}

TEST(GnatTest, NameReflectsConfiguration) {
  EXPECT_EQ(GnatDefender().name(), "GNAT");
  GnatDefender::Options topo_only;
  topo_only.use_feature = false;
  topo_only.use_ego = false;
  EXPECT_EQ(GnatDefender(topo_only).name(), "GNAT-+t");
  GnatDefender::Options merged;
  merged.merge_views = true;
  merged.use_feature = false;
  EXPECT_EQ(GnatDefender(merged).name(), "GNAT-te");
}

TEST(GnatTest, DecentAccuracyOnCleanGraph) {
  const Graph g = SmallGraph(2);
  GnatDefender gnat;
  nn::TrainOptions train;
  Rng rng(3);
  const auto report = gnat.Run(g, train, &rng);
  EXPECT_GT(report.test_accuracy, 0.70);
}

TEST(GnatTest, BeatsGcnOnPoisonedGraph) {
  const Graph g = SmallGraph(4, 0.35);
  const Graph poisoned = PoisonedGraph(g);
  nn::TrainOptions train;

  GnatDefender gnat;
  Rng rng1(5);
  const double gnat_acc = gnat.Run(poisoned, train, &rng1).test_accuracy;

  defense::GcnDefender gcn;
  Rng rng2(5);
  const double gcn_acc = gcn.Run(poisoned, train, &rng2).test_accuracy;

  EXPECT_GT(gnat_acc, gcn_acc - 0.01);  // GNAT >= GCN under attack
}

TEST(GnatTest, SingleViewVariantsRun) {
  const Graph g = SmallGraph(6, 0.2);
  const Graph poisoned = PoisonedGraph(g, 0.1);
  nn::TrainOptions train;
  train.max_epochs = 60;
  struct Variant {
    bool t, f, e;
  };
  for (const Variant variant :
       {Variant{true, false, false}, Variant{false, true, false},
        Variant{false, false, true}}) {
    GnatDefender::Options options;
    options.use_topology = variant.t;
    options.use_feature = variant.f;
    options.use_ego = variant.e;
    GnatDefender gnat(options);
    Rng rng(7);
    const auto report = gnat.Run(poisoned, train, &rng);
    EXPECT_GT(report.test_accuracy, 1.0 / g.num_classes)
        << gnat.name();
  }
}

TEST(GnatTest, MergedVariantRunsAndDiffersFromMultiView) {
  const Graph g = SmallGraph(8, 0.2);
  nn::TrainOptions train;
  train.max_epochs = 60;
  GnatDefender::Options merged;
  merged.merge_views = true;
  GnatDefender gnat_merged(merged);
  Rng rng(9);
  const auto report = gnat_merged.Run(g, train, &rng);
  EXPECT_GT(report.test_accuracy, 0.3);  // well above 1/7 chance
}

TEST(GnatTest, IdentityFeaturesDropFeatureView) {
  // Polblogs-like graph: the feature view must silently drop, not crash.
  Rng gen_rng(10);
  const Graph g = graph::MakePolblogsLike(&gen_rng, 0.4);
  GnatDefender gnat;
  nn::TrainOptions train;
  train.max_epochs = 80;
  Rng rng(11);
  const auto report = gnat.Run(g, train, &rng);
  EXPECT_GT(report.test_accuracy, 0.7);  // 2-class, homophilous
}

// GNAT trains through nn::TrainNodeClassifier, so it honours the
// trainer's contract: a non-finite loss stops training and reports
// kNumericFault with the best-so-far model's accuracies.
TEST(GnatTest, NonFiniteLossIsNumericFaultWithBestSoFarAccuracy) {
  const Graph g = SmallGraph(12, 0.2);
  nn::TrainOptions train;
  train.max_epochs = 20;
  GnatDefender gnat;
  Rng rng(13);
  debug::ArmFailpoint("trainer.epoch", "3");
  const auto report = gnat.Run(g, train, &rng);
  debug::DisarmAllFailpoints();
  EXPECT_EQ(report.status.code(), status::Code::kNumericFault)
      << report.status.ToString();
  EXPECT_TRUE(std::isfinite(report.test_accuracy));
  EXPECT_TRUE(std::isfinite(report.val_accuracy));
  EXPECT_GT(report.test_accuracy, 0.0);
}

TEST(GnatTest, EgoWeightEmphasizesSelfLoop) {
  const auto adjacency = graph::AdjacencyFromEdges(3, {{0, 1}, {1, 2}});
  const auto plain = graph::GcnNormalize(adjacency);
  const auto ego = graph::GcnNormalizeWeighted(adjacency, 11.0f);
  EXPECT_GT(ego.At(1, 1), plain.At(1, 1));
}

}  // namespace
}  // namespace repro::core
