#ifndef PEEGA_NN_SIMPGCN_H_
#define PEEGA_NN_SIMPGCN_H_

#include <vector>

#include "nn/model.h"

namespace repro::nn {

/// Similarity-Preserving GCN (Jin et al., WSDM 2021), simplified.
///
/// Alongside the GCN propagation A_n, the model builds a kNN graph S over
/// node-feature cosine similarity and learns per-node gates
/// s = sigmoid(X w + b) that mix the two propagations:
///   H' = s ⊙ (A_n H W) + (1 - s) ⊙ (S_n H W) + gamma * (H W)
/// so that nodes whose graph neighborhood was poisoned can fall back to
/// feature-space neighbors and to their own features.
///
/// Simplification vs. the original: the self-supervised pairwise
/// similarity regression head is dropped; the adaptive structure/feature
/// mixing — the mechanism the paper's robustness comparisons exercise —
/// is kept.
class SimPGcn : public Model {
 public:
  struct Options {
    int hidden_dim = 16;
    int knn_k = 10;
    float dropout = 0.5f;
    float gamma = 0.1f;
  };

  SimPGcn(int in_dim, int num_classes, const Options& options,
          linalg::Rng* rng);

  void Prepare(const graph::Graph& g) override;
  Forwarded Forward(autograd::Tape* tape, const graph::Graph& g,
                    bool training, linalg::Rng* rng) override;
  std::vector<linalg::Matrix*> Parameters() override;

 private:
  Options options_;
  linalg::Matrix w1_, w2_;
  linalg::Matrix gate_w1_, gate_b1_, gate_w2_, gate_b2_;
  autograd::ConstSparse a_n_;
  autograd::ConstSparse s_n_;
};

}  // namespace repro::nn

#endif  // PEEGA_NN_SIMPGCN_H_
