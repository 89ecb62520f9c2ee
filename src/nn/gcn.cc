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
  features_ = SparseMatrix::FromDense(g.features);
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
// H W to A_n H W. Layer 0 runs over the stored entries of the constant
// input x; the hidden layers are dense.
template <typename Propagate>
Var ForwardLayers(Tape* tape, const Gcn::Options& options,
                  const SparseMatrix& x,
                  const std::vector<std::pair<Matrix*, Var>>& bound,
                  bool training, linalg::Rng* rng, Propagate propagate) {
  const int num_layers = options.num_layers;
  const bool dropout = training && options.dropout > 0.0f;
  Var h;
  for (int l = 0; l < num_layers; ++l) {
    Var hw;
    if (l == 0) {
      hw = tape->SpMMConst(dropout ? DropoutSparse(x, options.dropout, rng) : x,
                           bound[0].second);
    } else {
      if (dropout) {
        h = tape->Dropout(
            h, DropoutMask(h.rows(), h.cols(), options.dropout, rng));
      }
      hw = tape->MatMul(h, bound[l].second);
    }
    h = propagate(hw);
    if (options.bias) {
      h = tape->AddRowVector(h, bound[num_layers + l].second);
    }
    if (l + 1 < num_layers) h = tape->Relu(h);
  }
  return h;
}

}  // namespace

Var Gcn::ForwardWithPropagation(
    Tape* tape, const autograd::ConstSparse& a_n, const SparseMatrix& x,
    const std::vector<std::pair<Matrix*, Var>>& bound, bool training,
    linalg::Rng* rng) {
  return ForwardLayers(tape, options_, x, bound, training, rng,
                       [&](Var hw) { return tape->SpMMConst(a_n, hw); });
}

Var Gcn::ForwardWithDensePropagation(
    Tape* tape, Var a_n, const SparseMatrix& x,
    const std::vector<std::pair<Matrix*, Var>>& bound, bool training,
    linalg::Rng* rng) {
  return ForwardLayers(tape, options_, x, bound, training, rng,
                       [&](Var hw) { return tape->MatMul(a_n, hw); });
}

Gcn::Forwarded Gcn::Forward(Tape* tape, const graph::Graph& g,
                            bool training, linalg::Rng* rng) {
  PEEGA_CHECK_EQ(g.features.rows(), features_.rows())
      << " — Forward on a graph other than the one Prepare saw";
  Forwarded result;
  result.bound = BindParameters(tape);
  result.logits = ForwardWithPropagation(tape, a_n_, features_, result.bound,
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
