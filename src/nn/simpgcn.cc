#include "nn/simpgcn.h"

#include "nn/init.h"

namespace repro::nn {

using autograd::Tape;
using autograd::Var;
using linalg::Matrix;

SimPGcn::SimPGcn(int in_dim, int num_classes, const Options& options,
                 linalg::Rng* rng)
    : options_(options) {
  w1_ = GlorotUniform(in_dim, options.hidden_dim, rng);
  w2_ = GlorotUniform(options.hidden_dim, num_classes, rng);
  gate_w1_ = GlorotUniform(in_dim, 1, rng);
  gate_b1_ = Matrix(1, 1);
  gate_w2_ = GlorotUniform(in_dim, 1, rng);
  gate_b2_ = Matrix(1, 1);
}

void SimPGcn::Prepare(const graph::Graph& g) {
  a_n_ = graph::GcnNormalize(g.adjacency);
  s_n_ = graph::GcnNormalize(
      graph::FeatureKnnGraph(g.features, options_.knn_k, 0.0f));
}

SimPGcn::Forwarded SimPGcn::Forward(Tape* tape, const graph::Graph& g,
                                    bool training, linalg::Rng* rng) {
  Forwarded result;
  auto bind = [&](Matrix* m) {
    Var v = tape->Input(*m, /*requires_grad=*/true);
    result.bound.emplace_back(m, v);
    return v;
  };
  Var w1 = bind(&w1_);
  Var w2 = bind(&w2_);
  Var gw1 = bind(&gate_w1_);
  Var gb1 = bind(&gate_b1_);
  Var gw2 = bind(&gate_w2_);
  Var gb2 = bind(&gate_b2_);

  Var x = tape->Input(g.features, /*requires_grad=*/false);
  // Per-node gates from raw features (N x 1); the 1x1 bias broadcasts
  // across all rows.
  Var gate1 =
      tape->Sigmoid(tape->AddRowVector(tape->MatMul(x, gw1), gb1));
  Var gate2 =
      tape->Sigmoid(tape->AddRowVector(tape->MatMul(x, gw2), gb2));

  Var h = x;
  if (training && options_.dropout > 0.0f) {
    h = tape->Dropout(h, DropoutMask(h.rows(), h.cols(), options_.dropout,
                                     rng));
  }
  auto mixed_layer = [&](Var input, Var w, Var gate) {
    Var hw = tape->MatMul(input, w);
    Var topo = tape->SpMMConst(a_n_, hw);
    Var feat = tape->SpMMConst(s_n_, hw);
    Var ones = tape->Input(Matrix(input.rows(), 1, 1.0f), false);
    Var inv_gate = tape->Sub(ones, gate);
    Var mix = tape->Add(tape->ScaleRowsVar(topo, gate),
                        tape->ScaleRowsVar(feat, inv_gate));
    return tape->Add(mix, tape->Scale(hw, options_.gamma));
  };
  h = tape->Relu(mixed_layer(h, w1, gate1));
  if (training && options_.dropout > 0.0f) {
    h = tape->Dropout(h, DropoutMask(h.rows(), h.cols(), options_.dropout,
                                     rng));
  }
  result.logits = mixed_layer(h, w2, gate2);
  return result;
}

std::vector<Matrix*> SimPGcn::Parameters() {
  return {&w1_, &w2_, &gate_w1_, &gate_b1_, &gate_w2_, &gate_b2_};
}

}  // namespace repro::nn
