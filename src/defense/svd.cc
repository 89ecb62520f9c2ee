#include "defense/svd.h"

#include <algorithm>

#include "debug/check.h"
#include "linalg/eigen.h"
#include "linalg/ops.h"
#include "obs/stopwatch.h"

namespace repro::defense {

using linalg::Matrix;
using linalg::SparseMatrix;

SvdDefender::SvdDefender() : options_(Options()) {}
SvdDefender::SvdDefender(const Options& options) : options_(options) {}

SparseMatrix SvdDefender::Purify(const graph::Graph& g,
                                 linalg::Rng* rng) const {
  PEEGA_CHECK_GT(options_.rank, 0) << " — SVD defense needs a positive rank";
  const int rank = std::min(options_.rank, g.num_nodes);
  const linalg::EigenResult eig =
      linalg::TopKEigenSymmetric(g.adjacency, rank, rng);
  Matrix reconstructed = linalg::LowRankReconstruct(eig);
  // Negative weights have no graph interpretation; clamp and sparsify.
  float* p = reconstructed.data();
  for (int64_t i = 0; i < reconstructed.size(); ++i) {
    if (p[i] < options_.sparsify_tol) p[i] = 0.0f;
  }
  for (int i = 0; i < reconstructed.rows(); ++i) reconstructed(i, i) = 0.0f;
  return SparseMatrix::FromDense(reconstructed);
}

DefenseReport SvdDefender::Run(const graph::Graph& g,
                               const nn::TrainOptions& train_options,
                               linalg::Rng* rng) {
  const obs::StopWatch watch;
  graph::Graph purified = g;
  purified.adjacency = Purify(g, rng);
  nn::Gcn model(g.features.cols(), g.num_classes, options_.gcn, rng);
  return TrainAndReport(&model, purified, train_options, rng, watch);
}

}  // namespace repro::defense
