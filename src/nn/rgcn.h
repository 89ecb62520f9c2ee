#ifndef PEEGA_NN_RGCN_H_
#define PEEGA_NN_RGCN_H_

#include <vector>

#include "nn/model.h"

namespace repro::nn {

/// Robust GCN (Zhu et al., KDD 2019), simplified.
///
/// Nodes are embedded as Gaussian distributions (mean, variance). The
/// first layer produces mean = relu(A_n X W_mu) and variance =
/// relu(A_n X W_sigma); a variance-based attention alpha = exp(-gamma *
/// variance) down-weights high-variance (likely attacked) dimensions;
/// the second layer propagates mean * alpha and variance * alpha^2.
/// During training the output samples z = mean + eps * sqrt(variance)
/// (reparameterization); evaluation uses the mean.
///
/// Simplification vs. the original: the KL regularizer on the latent
/// Gaussians is dropped — the robustness mechanism the paper's
/// experiments probe is the variance attention, which is kept intact.
class RGcn : public Model {
 public:
  struct Options {
    int hidden_dim = 16;
    float dropout = 0.5f;
    float gamma = 1.0f;
  };

  RGcn(int in_dim, int num_classes, const Options& options,
       linalg::Rng* rng);

  void Prepare(const graph::Graph& g) override;
  Forwarded Forward(autograd::Tape* tape, const graph::Graph& g,
                    bool training, linalg::Rng* rng) override;
  std::vector<linalg::Matrix*> Parameters() override;

 private:
  Options options_;
  linalg::Matrix w_mu1_, w_sigma1_, w_mu2_, w_sigma2_;
  autograd::ConstSparse a_n_;
};

}  // namespace repro::nn

#endif  // PEEGA_NN_RGCN_H_
