#include "nn/rgcn.h"

#include "linalg/ops.h"
#include "nn/init.h"

namespace repro::nn {

using autograd::Tape;
using autograd::Var;
using linalg::Matrix;

RGcn::RGcn(int in_dim, int num_classes, const Options& options,
           linalg::Rng* rng)
    : options_(options) {
  w_mu1_ = GlorotUniform(in_dim, options.hidden_dim, rng);
  w_sigma1_ = GlorotUniform(in_dim, options.hidden_dim, rng);
  w_mu2_ = GlorotUniform(options.hidden_dim, num_classes, rng);
  w_sigma2_ = GlorotUniform(options.hidden_dim, num_classes, rng);
}

void RGcn::Prepare(const graph::Graph& g) {
  a_n_ = graph::GcnNormalize(g.adjacency);
}

RGcn::Forwarded RGcn::Forward(Tape* tape, const graph::Graph& g,
                              bool training, linalg::Rng* rng) {
  Forwarded result;
  auto bind = [&](Matrix* m) {
    Var v = tape->Input(*m, /*requires_grad=*/true);
    result.bound.emplace_back(m, v);
    return v;
  };
  Var wm1 = bind(&w_mu1_);
  Var ws1 = bind(&w_sigma1_);
  Var wm2 = bind(&w_mu2_);
  Var ws2 = bind(&w_sigma2_);

  Var x = tape->Input(g.features, /*requires_grad=*/false);
  if (training && options_.dropout > 0.0f) {
    x = tape->Dropout(x, DropoutMask(x.rows(), x.cols(), options_.dropout,
                                     rng));
  }
  // Layer 1: Gaussian embedding.
  Var mu = tape->Relu(tape->SpMMConst(a_n_, tape->MatMul(x, wm1)));
  Var sigma = tape->Relu(tape->SpMMConst(a_n_, tape->MatMul(x, ws1)));
  // Variance attention alpha = exp(-gamma * sigma).
  Var alpha = tape->Exp(tape->Scale(sigma, -options_.gamma));
  Var mu_att = tape->Mul(mu, alpha);
  Var sigma_att = tape->Mul(sigma, tape->Mul(alpha, alpha));
  // Layer 2 propagates attended mean/variance.
  Var mu2 = tape->SpMMConst(a_n_, tape->MatMul(mu_att, wm2));
  Var sigma2 =
      tape->Relu(tape->SpMMConst(a_n_, tape->MatMul(sigma_att, ws2)));
  if (training) {
    // Reparameterized sample z = mu + eps .* sqrt(sigma).
    Matrix eps =
        linalg::RandomNormal(mu2.rows(), mu2.cols(), 1.0f, rng);
    Var noise = tape->MulConst(tape->PowNonNeg(sigma2, 0.5f), std::move(eps));
    result.logits = tape->Add(mu2, noise);
  } else {
    result.logits = mu2;
  }
  return result;
}

std::vector<Matrix*> RGcn::Parameters() {
  return {&w_mu1_, &w_sigma1_, &w_mu2_, &w_sigma2_};
}

}  // namespace repro::nn
