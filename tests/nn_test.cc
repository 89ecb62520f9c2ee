#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/metrics.h"
#include "linalg/ops.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/init.h"
#include "nn/optim.h"
#include "nn/rgcn.h"
#include "nn/simpgcn.h"
#include "nn/trainer.h"

namespace repro::nn {
namespace {

using graph::Graph;
using linalg::Matrix;
using linalg::Rng;

Graph SmallGraph(uint64_t seed = 1) {
  Rng rng(seed);
  return graph::MakeCoraLike(&rng, 0.4);  // 200 nodes, 7 classes
}

TEST(InitTest, GlorotBoundsRespected) {
  Rng rng(1);
  const Matrix w = GlorotUniform(100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (int64_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w.data()[i]), bound);
  }
  // Roughly centered.
  EXPECT_NEAR(linalg::Sum(w) / w.size(), 0.0, 0.01);
}

TEST(InitTest, DropoutMaskValues) {
  Rng rng(2);
  const Matrix mask = DropoutMask(50, 50, 0.5f, &rng);
  int zeros = 0;
  for (int64_t i = 0; i < mask.size(); ++i) {
    const float v = mask.data()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    zeros += v == 0.0f ? 1 : 0;
  }
  EXPECT_NEAR(zeros / 2500.0, 0.5, 0.06);
}

TEST(InitTest, ZeroDropoutIsIdentityMask) {
  Rng rng(3);
  const Matrix mask = DropoutMask(5, 5, 0.0f, &rng);
  EXPECT_LT(linalg::MaxAbsDiff(mask, Matrix(5, 5, 1.0f)), 1e-6f);
}

TEST(InitTest, DropoutMaskDrawsOneBernoulliPerEntryRowMajor) {
  // The mask is the per-entry Bernoulli(drop) loop on the same stream,
  // entry for entry, and leaves the stream where that loop would.
  for (const float drop : {0.1f, 0.5f, 0.9f}) {
    Rng rng(4);
    Rng reference(4);
    const Matrix mask = DropoutMask(37, 29, drop, &rng);
    const float keep_scale = 1.0f / (1.0f - drop);
    for (int64_t i = 0; i < mask.size(); ++i) {
      const float expected = reference.Bernoulli(drop) ? 0.0f : keep_scale;
      ASSERT_EQ(mask.data()[i], expected) << "entry " << i;
    }
    EXPECT_EQ(rng.engine()(), reference.engine()());
  }
}

TEST(InitTest, DropoutSparseIsTheDenseMaskOverStoredEntries) {
  // X has empty rows (first, middle, last), one full row, and
  // non-binary values of both signs. At every rate the sparse dropout is
  // X ⊙ DropoutMask entry for entry: kept entries are the same product,
  // dropped ones are not stored; the stream continues alike.
  Rng fill(9);
  Matrix x(23, 41);
  for (int r = 0; r < x.rows(); ++r) {
    if (r == 0 || r == 7 || r == x.rows() - 1) continue;
    for (int c = 0; c < x.cols(); ++c) {
      if (r != 11 && !fill.Bernoulli(0.15)) continue;
      const float magnitude = static_cast<float>(fill.Uniform(0.25, 3.0));
      x(r, c) = fill.Bernoulli(0.5) ? -magnitude : magnitude;
    }
  }
  const linalg::SparseMatrix xs = linalg::SparseMatrix::FromDense(x);
  for (const float drop : {0.0f, 0.3f, 0.5f, 0.9f}) {
    SCOPED_TRACE("drop " + std::to_string(drop));
    Rng rng(5);
    Rng reference(5);
    const linalg::SparseMatrix dropped = DropoutSparse(xs, drop, &rng);
    const Matrix expected =
        linalg::Mul(x, DropoutMask(x.rows(), x.cols(), drop, &reference));
    ASSERT_EQ(dropped.rows(), x.rows());
    ASSERT_EQ(dropped.cols(), x.cols());
    int64_t stored = 0;
    for (int64_t i = 0; i < expected.size(); ++i) {
      stored += expected.data()[i] != 0.0f ? 1 : 0;
    }
    EXPECT_EQ(dropped.nnz(), stored);
    const Matrix dense = dropped.ToDense();
    for (int64_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(dense.data()[i], expected.data()[i]) << "entry " << i;
    }
    EXPECT_EQ(rng.engine()(), reference.engine()());
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize ||w - target||^2.
  const Matrix target = Matrix::FromRows({{1.0f, -2.0f, 3.0f}});
  Matrix w(1, 3);
  Adam adam(0.1f, 0.0f);
  for (int step = 0; step < 300; ++step) {
    Matrix grad = linalg::Sub(w, target);
    adam.Step(&w, grad);
  }
  EXPECT_LT(linalg::MaxAbsDiff(w, target), 1e-2f);
}

TEST(AdamTest, WeightDecayShrinksParameters) {
  Matrix w(1, 1, 10.0f);
  Adam adam(0.1f, 1.0f);  // heavy decay, zero loss gradient
  const Matrix zero_grad(1, 1);
  for (int step = 0; step < 300; ++step) adam.Step(&w, zero_grad);
  EXPECT_LT(std::fabs(w(0, 0)), 1.0f);
}

TEST(SgdTest, StepDirection) {
  Matrix w(1, 1, 1.0f);
  SgdStep(&w, Matrix(1, 1, 2.0f), 0.1f);
  EXPECT_NEAR(w(0, 0), 0.8f, 1e-6f);
}

TEST(GcnTest, TrainsToHighAccuracyOnHomophilousGraph) {
  const Graph g = SmallGraph();
  Rng rng(10);
  Gcn gcn(g.features.cols(), g.num_classes, Gcn::Options(), &rng);
  TrainOptions options;
  const TrainReport report = TrainNodeClassifier(&gcn, g, options, &rng);
  EXPECT_GT(report.test_accuracy, 0.70);
  EXPECT_GT(report.train_accuracy, 0.85);
}

TEST(GcnTest, LossDecreasesDuringTraining) {
  const Graph g = SmallGraph(2);
  Rng rng(11);
  Gcn gcn(g.features.cols(), g.num_classes, Gcn::Options(), &rng);
  TrainOptions short_options;
  short_options.max_epochs = 5;
  short_options.patience = 0;
  const TrainReport early = TrainNodeClassifier(&gcn, g, short_options, &rng);
  TrainOptions longer;
  longer.max_epochs = 100;
  longer.patience = 0;
  const TrainReport late = TrainNodeClassifier(&gcn, g, longer, &rng);
  EXPECT_LT(late.final_loss, early.final_loss);
}

TEST(GcnTest, DeeperVariantsRun) {
  const Graph g = SmallGraph(3);
  for (int layers : {1, 3, 4}) {
    Rng rng(12);
    Gcn::Options options;
    options.num_layers = layers;
    Gcn gcn(g.features.cols(), g.num_classes, options, &rng);
    TrainOptions train;
    train.max_epochs = 30;
    train.patience = 0;
    const TrainReport report = TrainNodeClassifier(&gcn, g, train, &rng);
    EXPECT_GT(report.train_accuracy, 0.3) << layers << " layers";
  }
}

TEST(GcnTest, PredictLabelsInRange) {
  const Graph g = SmallGraph(4);
  Rng rng(13);
  Gcn gcn(g.features.cols(), g.num_classes, Gcn::Options(), &rng);
  gcn.Prepare(g);
  const std::vector<int> preds = PredictLabels(&gcn, g, &rng);
  EXPECT_EQ(preds.size(), static_cast<size_t>(g.num_nodes));
  for (int p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, g.num_classes);
  }
}

TEST(GatTest, TrainsAboveMajorityBaseline) {
  Rng gen_rng(5);
  const Graph g = graph::MakeCoraLike(&gen_rng, 0.5);
  Rng rng(14);
  Gat gat(g.features.cols(), g.num_classes, Gat::Options(), &rng);
  TrainOptions options;
  options.max_epochs = 120;
  const TrainReport report = TrainNodeClassifier(&gat, g, options, &rng);
  EXPECT_GT(report.test_accuracy, 0.55);
}

TEST(RGcnTest, TrainsAboveMajorityBaseline) {
  const Graph g = SmallGraph(6);
  Rng rng(15);
  RGcn rgcn(g.features.cols(), g.num_classes, RGcn::Options(), &rng);
  TrainOptions options;
  options.max_epochs = 150;
  const TrainReport report = TrainNodeClassifier(&rgcn, g, options, &rng);
  EXPECT_GT(report.test_accuracy, 0.55);
}

TEST(SimPGcnTest, TrainsAboveMajorityBaseline) {
  const Graph g = SmallGraph(7);
  Rng rng(16);
  SimPGcn model(g.features.cols(), g.num_classes, SimPGcn::Options(),
                &rng);
  TrainOptions options;
  options.max_epochs = 150;
  const TrainReport report = TrainNodeClassifier(&model, g, options, &rng);
  EXPECT_GT(report.test_accuracy, 0.55);
}

TEST(SimPGcnTest, KnnGraphHasAtLeastKNeighborsAndIsSymmetric) {
  Rng rng(17);
  const Graph g = SmallGraph(8);
  const auto knn = graph::FeatureKnnGraph(g.features, 5, 0.0f);
  const auto knn_t = knn.Transposed();
  EXPECT_LT(linalg::MaxAbsDiff(knn.ToDense(), knn_t.ToDense()), 1e-6f);
  // Every node got >= 5 neighbors (symmetrization can add more).
  int min_degree = g.num_nodes;
  for (int v = 0; v < g.num_nodes; ++v) {
    min_degree = std::min(min_degree, knn.RowNnz(v));
  }
  EXPECT_GE(min_degree, 5);
}

TEST(TrainerTest, EarlyStoppingStopsBeforeMaxEpochs) {
  const Graph g = SmallGraph(9);
  Rng rng(18);
  Gcn gcn(g.features.cols(), g.num_classes, Gcn::Options(), &rng);
  TrainOptions options;
  options.max_epochs = 500;
  options.patience = 10;
  const TrainReport report = TrainNodeClassifier(&gcn, g, options, &rng);
  EXPECT_LT(report.epochs_run, 500);
}

TEST(TrainerTest, SelfTrainLabelsKeepTrainLabels) {
  const Graph g = SmallGraph(10);
  Rng rng(19);
  const std::vector<int> pseudo = SelfTrainLabels(g, &rng);
  for (int v : g.train_nodes) EXPECT_EQ(pseudo[v], g.labels[v]);
  // Pseudo labels should be decent on test nodes too.
  EXPECT_GT(graph::Accuracy(pseudo, g.labels, g.test_nodes), 0.6);
}

}  // namespace
}  // namespace repro::nn
