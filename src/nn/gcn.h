#ifndef PEEGA_NN_GCN_H_
#define PEEGA_NN_GCN_H_

#include <memory>
#include <vector>

#include "nn/model.h"

namespace repro::nn {

/// Graph Convolutional Network (Kipf & Welling, 2017).
///
/// Z = softmax(A_n σ(... σ(A_n X W^0) ...) W^L) with A_n the symmetric
/// GCN normalization. The paper trains 2-layer GCNs as the primary
/// victim/backbone model (Eq. 1-2); layer count is configurable for the
/// Fig. 7(b) depth study.
class Gcn : public Model {
 public:
  struct Options {
    int hidden_dim = 16;
    int num_layers = 2;
    float dropout = 0.5f;
    bool bias = true;
  };

  Gcn(int in_dim, int num_classes, const Options& options,
      linalg::Rng* rng);

  void Prepare(const graph::Graph& g) override;
  Forwarded Forward(autograd::Tape* tape, const graph::Graph& g,
                    bool training, linalg::Rng* rng) override;
  std::vector<linalg::Matrix*> Parameters() override;

  /// Forward pass through the layer stack with an externally supplied
  /// propagation matrix and the constant input features `x` in CSR form
  /// (built once per graph: `linalg::SparseMatrix::FromDense`). `bound`
  /// must come from `BindParameters` on the same tape. Exposed so GNAT
  /// can run the same weights over several augmented graphs and attacks
  /// can propagate through a dense differentiable adjacency.
  ///
  /// The first layer multiplies over x's stored entries: its dropout is
  /// `DropoutSparse` and its product one `SpMMConst`, which give bitwise
  /// the floats, weight gradients and stream position of a dense mask
  /// and matmul for finite x (the dense kernels skip exact zeros and sum
  /// in the same ascending order; DESIGN.md).
  autograd::Var ForwardWithPropagation(
      autograd::Tape* tape, const autograd::ConstSparse& a_n,
      const linalg::SparseMatrix& x,
      const std::vector<std::pair<linalg::Matrix*, autograd::Var>>& bound,
      bool training, linalg::Rng* rng);

  /// Dense variant: propagation is a tape Var (e.g. a normalized relaxed
  /// adjacency under attack).
  autograd::Var ForwardWithDensePropagation(
      autograd::Tape* tape, autograd::Var a_n, const linalg::SparseMatrix& x,
      const std::vector<std::pair<linalg::Matrix*, autograd::Var>>& bound,
      bool training, linalg::Rng* rng);

  /// Binds all parameters onto `tape`.
  std::vector<std::pair<linalg::Matrix*, autograd::Var>> BindParameters(
      autograd::Tape* tape);

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::vector<linalg::Matrix> weights_;
  std::vector<linalg::Matrix> biases_;
  // Cached by Prepare.
  autograd::ConstSparse a_n_;
  linalg::SparseMatrix features_;
};

}  // namespace repro::nn

#endif  // PEEGA_NN_GCN_H_
