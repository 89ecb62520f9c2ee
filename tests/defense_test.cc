#include <gtest/gtest.h>

#include "core/gnat.h"
#include "core/peega.h"
#include "defense/gnnguard.h"
#include "defense/jaccard.h"
#include "defense/model_defenders.h"
#include "defense/prognn.h"
#include "defense/svd.h"
#include "eval/registry.h"
#include "graph/generators.h"
#include "linalg/ops.h"

namespace repro::defense {
namespace {

using graph::Graph;
using linalg::Matrix;
using linalg::Rng;

Graph SmallGraph(uint64_t seed = 1, double scale = 0.3) {
  Rng rng(seed);
  return graph::MakeCoraLike(&rng, scale);
}

Graph PoisonedGraph(const Graph& g, double rate = 0.15) {
  core::PeegaAttack attacker;
  attack::AttackOptions options;
  options.perturbation_rate = rate;
  Rng rng(55);
  return attacker.Attack(g, options, &rng).poisoned;
}

TEST(JaccardTest, PurifyRemovesOnlyDissimilarEdges) {
  Graph g;
  g.num_nodes = 4;
  g.num_classes = 2;
  g.adjacency = graph::AdjacencyFromEdges(4, {{0, 1}, {0, 2}, {2, 3}});
  g.features = Matrix::FromRows(
      {{1, 1, 0, 0}, {1, 1, 0, 0}, {0, 0, 1, 1}, {0, 0, 1, 1}});
  g.labels = {0, 0, 1, 1};
  g.train_nodes = {0, 2};
  g.val_nodes = {1};
  g.test_nodes = {3};

  JaccardDefender::Options options;
  options.threshold = 0.1f;
  JaccardDefender defender(options);
  const Graph purified = defender.Purify(g);
  EXPECT_TRUE(purified.HasEdge(0, 1));   // similar: kept
  EXPECT_TRUE(purified.HasEdge(2, 3));   // similar: kept
  EXPECT_FALSE(purified.HasEdge(0, 2));  // dissimilar: removed
}

TEST(JaccardTest, ZeroThresholdKeepsEverything) {
  const Graph g = SmallGraph(2, 0.2);
  JaccardDefender::Options options;
  options.threshold = 0.0f;
  JaccardDefender defender(options);
  EXPECT_EQ(defender.Purify(g).NumEdges(), g.NumEdges());
}

TEST(SvdTest, PurifiedAdjacencyIsNonNegativeWithoutSelfLoops) {
  const Graph g = SmallGraph(3, 0.25);
  SvdDefender defender;
  Rng rng(4);
  const auto purified = defender.Purify(g, &rng);
  for (float v : purified.values()) EXPECT_GE(v, 0.0f);
  for (int i = 0; i < g.num_nodes; ++i) {
    EXPECT_FLOAT_EQ(purified.At(i, i), 0.0f);
  }
}

TEST(SvdTest, LowRankFiltersRandomNoiseEdges) {
  // A dense 2-block community graph is near rank-2; random cross edges
  // should be attenuated in the reconstruction relative to block edges.
  Rng rng(5);
  const Graph g = graph::MakePolblogsLike(&rng, 0.4);
  SvdDefender::Options options;
  options.rank = 8;
  SvdDefender defender(options);
  Rng rng2(6);
  const auto purified = defender.Purify(g, &rng2);
  EXPECT_GT(purified.nnz(), 0);
}

TEST(DefenderContract, AllDefendersBeatChanceOnPoisonedGraph) {
  const Graph g = SmallGraph(7, 0.3);
  const Graph poisoned = PoisonedGraph(g, 0.1);
  nn::TrainOptions train;
  train.max_epochs = 100;
  const double chance = 1.0 / g.num_classes;

  GcnDefender gcn;
  GatDefender gat;
  JaccardDefender jaccard;
  SvdDefender svd;
  RGcnDefender rgcn;
  SimPGcnDefender simpgcn;
  std::vector<Defender*> defenders = {&gcn,  &gat,  &jaccard,
                                      &svd,  &rgcn, &simpgcn};
  for (Defender* d : defenders) {
    Rng rng(8);
    const DefenseReport report = d->Run(poisoned, train, &rng);
    EXPECT_GT(report.test_accuracy, chance + 0.1) << d->name();
    EXPECT_GT(report.train_seconds, 0.0) << d->name();
  }
}

TEST(ProGnnTest, RunsAndBeatsChance) {
  const Graph g = SmallGraph(9, 0.2);
  const Graph poisoned = PoisonedGraph(g, 0.1);
  ProGnnDefender::Options options;
  options.outer_epochs = 25;
  options.lowrank_every = 10;
  ProGnnDefender defender(options);
  nn::TrainOptions train;
  train.max_epochs = 80;
  Rng rng(10);
  const DefenseReport report = defender.Run(poisoned, train, &rng);
  EXPECT_GT(report.test_accuracy, 1.0 / g.num_classes + 0.1);
}

TEST(GnnGuardTest, WeightsEdgesBySimilarityAndPrunes) {
  Graph g;
  g.num_nodes = 4;
  g.num_classes = 2;
  g.adjacency = graph::AdjacencyFromEdges(4, {{0, 1}, {0, 2}, {2, 3}});
  g.features = Matrix::FromRows(
      {{1, 1, 0, 0}, {1, 1, 0, 0}, {0, 0, 1, 1}, {0, 0, 1, 1}});
  g.labels = {0, 0, 1, 1};
  g.train_nodes = {0, 2};
  g.val_nodes = {1};
  g.test_nodes = {3};
  GnnGuardDefender defender;
  const auto weighted = defender.WeightedAdjacency(g);
  EXPECT_NEAR(weighted.At(0, 1), 1.0f, 1e-5f);   // identical features
  EXPECT_FLOAT_EQ(weighted.At(0, 2), 0.0f);      // orthogonal: pruned
  EXPECT_NEAR(weighted.At(3, 2), 1.0f, 1e-5f);
  // Symmetric.
  EXPECT_FLOAT_EQ(weighted.At(1, 0), weighted.At(0, 1));
}

TEST(GnnGuardTest, FallsBackOnIdentityFeatures) {
  Rng rng(30);
  const Graph g = graph::MakePolblogsLike(&rng, 0.4);
  GnnGuardDefender defender;
  const auto weighted = defender.WeightedAdjacency(g);
  // Identity features zero all similarities; topology must survive.
  EXPECT_EQ(weighted.nnz(), g.adjacency.nnz());
}

TEST(GnnGuardTest, BeatsChanceOnPoisonedGraph) {
  const Graph g = SmallGraph(31, 0.3);
  const Graph poisoned = PoisonedGraph(g, 0.1);
  GnnGuardDefender defender;
  nn::TrainOptions train;
  train.max_epochs = 100;
  Rng rng(32);
  const DefenseReport report = defender.Run(poisoned, train, &rng);
  EXPECT_GT(report.test_accuracy, 1.0 / g.num_classes + 0.2);
}

TEST(DefenderContract, NamesAreStable) {
  EXPECT_EQ(GcnDefender().name(), "GCN");
  EXPECT_EQ(GatDefender().name(), "GAT");
  EXPECT_EQ(JaccardDefender().name(), "GCN-Jaccard");
  EXPECT_EQ(SvdDefender().name(), "GCN-SVD");
  EXPECT_EQ(RGcnDefender().name(), "RGCN");
  EXPECT_EQ(ProGnnDefender().name(), "Pro-GNN");
  EXPECT_EQ(SimPGcnDefender().name(), "SimPGCN");
  EXPECT_EQ(GnnGuardDefender().name(), "GNNGuard");
}

// Every defender's report, pinned bit for bit on one seeded clean graph.
// A refactor of the shared training path (nn::TrainNodeClassifier, the
// GCN layer loop, the feature kNN graph, GNAT's views) must leave these
// counts exactly as they are.
struct PinnedReport {
  const char* label;
  int test_correct;
  int val_correct;
};

void ExpectPinned(const PinnedReport& pin, const DefenseReport& report,
                  const Graph& g) {
  const double test_total = static_cast<double>(g.test_nodes.size());
  const double val_total = static_cast<double>(g.val_nodes.size());
  EXPECT_EQ(report.test_accuracy, pin.test_correct / test_total)
      << pin.label << ": test " << report.test_accuracy * test_total << "/"
      << test_total;
  EXPECT_EQ(report.val_accuracy, pin.val_correct / val_total)
      << pin.label << ": val " << report.val_accuracy * val_total << "/"
      << val_total;
}

TEST(DefenderPinTest, RegisteredDefendersReportBitwiseStableAccuracy) {
  const Graph g = SmallGraph(21, 0.6);
  nn::TrainOptions train;
  train.max_epochs = 40;
  const PinnedReport kPinned[] = {
      {"gnat", 223, 28},    {"gcn", 213, 27},     {"gat", 160, 23},
      {"jaccard", 165, 27}, {"svd", 159, 25},     {"rgcn", 218, 26},
      {"prognn", 155, 23},  {"simpgcn", 223, 29}, {"gnnguard", 194, 25},
  };
  const std::vector<std::string> names = eval::DefenderNames();
  ASSERT_EQ(names.size(), std::size(kPinned));
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(names[i], kPinned[i].label);
    std::unique_ptr<Defender> defender = eval::MakeDefenderByName(names[i]);
    Rng rng(22);
    ExpectPinned(kPinned[i], defender->Run(g, train, &rng), g);
  }
}

TEST(DefenderPinTest, GnatVariantsReportBitwiseStableAccuracy) {
  const Graph g = SmallGraph(21, 0.6);
  nn::TrainOptions train;
  train.max_epochs = 40;
  core::GnatDefender::Options merged;
  merged.merge_views = true;
  core::GnatDefender::Options pruned;
  pruned.prune_threshold = 0.01f;
  nn::TrainOptions no_patience = train;
  no_patience.patience = 0;
  Rng polblogs_rng(23);
  const Graph identity = graph::MakePolblogsLike(&polblogs_rng, 0.8);

  struct Case {
    PinnedReport pin;
    core::GnatDefender::Options options;
    const Graph* graph;
    nn::TrainOptions train;
  };
  const Case cases[] = {
      {{"merge_views", 220, 29}, merged, &g, train},
      {{"prune_threshold", 229, 29}, pruned, &g, train},
      {{"patience 0", 230, 28}, {}, &g, no_patience},
      {{"identity features", 150, 18}, {}, &identity, train},
  };
  for (const Case& c : cases) {
    core::GnatDefender gnat(c.options);
    Rng rng(24);
    ExpectPinned(c.pin, gnat.Run(*c.graph, c.train, &rng), *c.graph);
  }
}

}  // namespace
}  // namespace repro::defense
