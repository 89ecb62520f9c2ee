#include "nn/gcn.h"

#include "debug/check.h"
#include "nn/init.h"

namespace repro::nn {

using autograd::Tape;
using autograd::Var;
using linalg::Matrix;
using linalg::SparseMatrix;

Gcn::Gcn(int in_dim, int num_classes, const Options& options,
         linalg::Rng* rng)
    : options_(options) {
  PEEGA_CHECK_GE(options.num_layers, 1);
  int dim = in_dim;
  for (int l = 0; l < options.num_layers; ++l) {
    const int out_dim =
        l + 1 == options.num_layers ? num_classes : options.hidden_dim;
    weights_.push_back(GlorotUniform(dim, out_dim, rng));
    if (options.bias) biases_.push_back(Matrix(1, out_dim));
    dim = out_dim;
  }
}

void Gcn::Prepare(const graph::Graph& g) {
  a_n_ = graph::GcnNormalize(g.adjacency);
}

std::vector<std::pair<Matrix*, Var>> Gcn::BindParameters(Tape* tape) {
  std::vector<std::pair<Matrix*, Var>> bound;
  for (auto& w : weights_) {
    bound.emplace_back(&w, tape->Input(w, /*requires_grad=*/true));
  }
  for (auto& b : biases_) {
    bound.emplace_back(&b, tape->Input(b, /*requires_grad=*/true));
  }
  return bound;
}

namespace {

// The layer stack shared by both propagation forms; `propagate` maps
// H W to A_n H W.
template <typename Propagate>
Var ForwardLayers(Tape* tape, const Gcn::Options& options, Var x,
                  const std::vector<std::pair<Matrix*, Var>>& bound,
                  bool training, linalg::Rng* rng, Propagate propagate) {
  const int num_layers = options.num_layers;
  Var h = x;
  for (int l = 0; l < num_layers; ++l) {
    if (training && options.dropout > 0.0f) {
      h = tape->Dropout(
          h, DropoutMask(h.rows(), h.cols(), options.dropout, rng));
    }
    h = propagate(tape->MatMul(h, bound[l].second));
    if (options.bias) {
      h = tape->AddRowVector(h, bound[num_layers + l].second);
    }
    if (l + 1 < num_layers) h = tape->Relu(h);
  }
  return h;
}

}  // namespace

Var Gcn::ForwardWithPropagation(
    Tape* tape, const SparseMatrix& a_n, Var x,
    const std::vector<std::pair<Matrix*, Var>>& bound, bool training,
    linalg::Rng* rng) {
  return ForwardLayers(tape, options_, x, bound, training, rng,
                       [&](Var hw) { return tape->SpMMConst(a_n, hw); });
}

Var Gcn::ForwardWithDensePropagation(
    Tape* tape, Var a_n, Var x,
    const std::vector<std::pair<Matrix*, Var>>& bound, bool training,
    linalg::Rng* rng) {
  return ForwardLayers(tape, options_, x, bound, training, rng,
                       [&](Var hw) { return tape->MatMul(a_n, hw); });
}

Gcn::Forwarded Gcn::Forward(Tape* tape, const graph::Graph& g,
                            bool training, linalg::Rng* rng) {
  Forwarded result;
  result.bound = BindParameters(tape);
  Var x = tape->Input(g.features, /*requires_grad=*/false);
  result.logits = ForwardWithPropagation(tape, a_n_, x, result.bound,
                                         training, rng);
  return result;
}

std::vector<Matrix*> Gcn::Parameters() {
  std::vector<Matrix*> params;
  for (auto& w : weights_) params.push_back(&w);
  for (auto& b : biases_) params.push_back(&b);
  return params;
}

}  // namespace repro::nn
