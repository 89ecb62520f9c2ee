// Differential test of the GCN family's sparse first layer. nn::Gcn runs
// layer 0 as nn::DropoutSparse plus one SpMMConst over the stored
// entries of X; this file keeps the dense first layer (X as a tape
// input, a dense nn::DropoutMask, Tape::Dropout and Tape::MatMul) as the
// reference. GCN and 3-view GNAT trained for five epochs through both
// must end with bitwise the same parameters, eval logits and random
// stream position, at 1, 2 and 8 threads.

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/tape.h"
#include "core/gnat.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "linalg/ops.h"
#include "nn/gcn.h"
#include "nn/init.h"
#include "nn/trainer.h"
#include "parallel/thread_pool.h"

namespace repro {
namespace {

using autograd::Tape;
using autograd::Var;
using graph::Graph;
using linalg::Matrix;
using linalg::Rng;
using linalg::SparseMatrix;
using Bound = std::vector<std::pair<Matrix*, Var>>;

// The layer stack with the dense first layer, as nn::Gcn ran it before
// its input layer went sparse.
template <typename Propagate>
Var DenseLayers(Tape* tape, const nn::Gcn::Options& options, Var x,
                const Bound& bound, bool training, Rng* rng,
                Propagate propagate) {
  const int num_layers = options.num_layers;
  Var h = x;
  for (int l = 0; l < num_layers; ++l) {
    if (training && options.dropout > 0.0f) {
      h = tape->Dropout(
          h, nn::DropoutMask(h.rows(), h.cols(), options.dropout, rng));
    }
    h = propagate(tape->MatMul(h, bound[l].second));
    if (options.bias) {
      h = tape->AddRowVector(h, bound[num_layers + l].second);
    }
    if (l + 1 < num_layers) h = tape->Relu(h);
  }
  return h;
}

// One shared-weight GCN over fixed propagation views with averaged
// logits, GNAT's model: with `dense` its first layer is the reference
// above, otherwise nn::Gcn::ForwardWithPropagation's.
class ViewsModel : public nn::Model {
 public:
  ViewsModel(const Graph& g, const nn::Gcn::Options& options, Rng* rng,
             std::vector<SparseMatrix> views, bool dense)
      : gcn_(g.features.cols(), g.num_classes, options, rng), dense_(dense) {
    views_.assign(views.begin(), views.end());
  }

  void Prepare(const Graph& g) override {
    features_ = SparseMatrix::FromDense(g.features);
  }

  Forwarded Forward(Tape* tape, const Graph& g, bool training,
                    Rng* rng) override {
    Forwarded result;
    result.bound = gcn_.BindParameters(tape);
    const Var x = dense_ ? tape->Input(g.features) : Var();
    for (size_t i = 0; i < views_.size(); ++i) {
      const autograd::ConstSparse& view = views_[i];
      const auto propagate = [&](Var hw) { return tape->SpMMConst(view, hw); };
      const Var z =
          dense_ ? DenseLayers(tape, gcn_.options(), x, result.bound,
                               training, rng, propagate)
                 : gcn_.ForwardWithPropagation(tape, view, features_,
                                               result.bound, training, rng);
      result.logits = i == 0 ? z : tape->Add(result.logits, z);
    }
    if (views_.size() > 1) {
      result.logits = tape->Scale(
          result.logits, 1.0f / static_cast<float>(views_.size()));
    }
    return result;
  }

  std::vector<Matrix*> Parameters() override { return gcn_.Parameters(); }

 private:
  nn::Gcn gcn_;
  bool dense_;
  std::vector<autograd::ConstSparse> views_;
  SparseMatrix features_;
};

// Everything a run leaves behind that the two first layers must agree
// on, bit for bit.
struct Outcome {
  std::vector<Matrix> parameters;
  Matrix logits;
  uint64_t next_draw = 0;
  double test_accuracy = 0.0;
};

nn::TrainOptions FiveEpochs() {
  nn::TrainOptions options;
  options.max_epochs = 5;
  return options;
}

Outcome Train(nn::Model* model, const Graph& g, Rng* rng) {
  nn::TrainReport report = nn::TrainNodeClassifier(model, g, FiveEpochs(), rng);
  Outcome outcome;
  for (Matrix* p : model->Parameters()) outcome.parameters.push_back(*p);
  outcome.logits = nn::PredictLogits(model, g, rng);
  outcome.next_draw = rng->engine()();
  outcome.test_accuracy = report.test_accuracy;
  return outcome;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

void ExpectSameBits(const Outcome& actual, const Outcome& expected) {
  ASSERT_EQ(actual.parameters.size(), expected.parameters.size());
  for (size_t i = 0; i < actual.parameters.size(); ++i) {
    EXPECT_TRUE(SameBits(actual.parameters[i], expected.parameters[i]))
        << "parameter " << i;
  }
  EXPECT_TRUE(SameBits(actual.logits, expected.logits)) << "eval logits";
  EXPECT_EQ(actual.next_draw, expected.next_draw);
  EXPECT_EQ(actual.test_accuracy, expected.test_accuracy);
}

Graph CoraLike() {
  Rng rng(11);
  return graph::MakeCoraLike(&rng, 0.6);
}

// The same graph with every stored feature scaled by a signed,
// non-binary factor: kept entries multiply by 1/(1-drop) exactly as in
// the dense mask product.
Graph WeightedFeatures(Graph g) {
  Rng rng(12);
  float* x = g.features.data();
  for (int64_t i = 0; i < g.features.size(); ++i) {
    if (x[i] == 0.0f) continue;
    const float factor = static_cast<float>(rng.Uniform(0.25, 2.0));
    x[i] *= rng.Bernoulli(0.5) ? -factor : factor;
  }
  return g;
}

std::vector<SparseMatrix> GnatViews(const core::GnatDefender::Options& o,
                                    const Graph& g) {
  return {graph::GcnNormalize(
              core::GnatDefender::BuildTopologyGraph(g.adjacency, o.k_t)),
          graph::GcnNormalize(graph::FeatureKnnGraph(g.features, o.k_f, 1e-6f)),
          graph::GcnNormalizeWeighted(g.adjacency,
                                      static_cast<float>(o.k_e) + 1.0f)};
}

class SparseInputEquivTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { parallel::SetNumThreads(GetParam()); }
  void TearDown() override { parallel::SetNumThreads(0); }
};

TEST_P(SparseInputEquivTest, GcnMatchesDenseFirstLayer) {
  for (const Graph& g : {CoraLike(), WeightedFeatures(CoraLike())}) {
    Rng sparse_rng(21);
    nn::Gcn gcn(g.features.cols(), g.num_classes, nn::Gcn::Options(),
                &sparse_rng);
    const Outcome sparse = Train(&gcn, g, &sparse_rng);

    Rng dense_rng(21);
    ViewsModel reference(g, nn::Gcn::Options(), &dense_rng,
                         {graph::GcnNormalize(g.adjacency)}, /*dense=*/true);
    const Outcome dense = Train(&reference, g, &dense_rng);
    ExpectSameBits(sparse, dense);
  }
}

TEST_P(SparseInputEquivTest, GnatMatchesDenseFirstLayer) {
  const Graph g = CoraLike();
  const core::GnatDefender::Options options;
  Rng sparse_rng(31);
  ViewsModel mirror(g, options.gcn, &sparse_rng, GnatViews(options, g),
                    /*dense=*/false);
  const Outcome sparse = Train(&mirror, g, &sparse_rng);

  Rng dense_rng(31);
  ViewsModel reference(g, options.gcn, &dense_rng, GnatViews(options, g),
                       /*dense=*/true);
  const Outcome dense = Train(&reference, g, &dense_rng);
  ExpectSameBits(sparse, dense);

  // The defender itself: same views, weights and draws, so the same
  // accuracies and stream position as the dense reference.
  Rng defender_rng(31);
  core::GnatDefender defender(options);
  const defense::DefenseReport report =
      defender.Run(g, FiveEpochs(), &defender_rng);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.test_accuracy, dense.test_accuracy);
  // Train() drew the eval logits (no draws) and then one value.
  EXPECT_EQ(defender_rng.engine()(), dense.next_draw);
}

INSTANTIATE_TEST_SUITE_P(Threads, SparseInputEquivTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "threads";
                         });

}  // namespace
}  // namespace repro
