#include "attack/common.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "attack/attacker.h"
#include "debug/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace repro::attack {

using linalg::Matrix;
using linalg::SparseMatrix;

int ComputeBudget(const graph::Graph& g, double perturbation_rate) {
  if (perturbation_rate <= 0.0) return 0;
  const int budget =
      static_cast<int>(perturbation_rate * static_cast<double>(g.NumEdges()));
  return std::max(budget, 1);
}

AccessControl::AccessControl(int num_nodes,
                             const std::vector<int>& attacker_nodes)
    : controlled_(num_nodes, attacker_nodes.empty() ? 1 : 0),
      all_nodes_(attacker_nodes.empty()) {
  for (int v : attacker_nodes) {
    PEEGA_CHECK_GE(v, 0);
    PEEGA_CHECK_LT(v, num_nodes);
    controlled_[v] = 1;
  }
}

void FlipEdge(Matrix* dense_adjacency, int u, int v) {
  const int n = dense_adjacency->rows();
  PEEGA_CHECK_NE(u, v) << " — self-loop flips are not valid perturbations";
  PEEGA_CHECK_GE(u, 0) << " in FlipEdge";
  PEEGA_CHECK_LT(u, n) << " in FlipEdge on " << n << " nodes";
  PEEGA_CHECK_GE(v, 0) << " in FlipEdge";
  PEEGA_CHECK_LT(v, n) << " in FlipEdge on " << n << " nodes";
  const float flipped = (*dense_adjacency)(u, v) > 0.5f ? 0.0f : 1.0f;
  (*dense_adjacency)(u, v) = flipped;
  (*dense_adjacency)(v, u) = flipped;
}

void FlipFeature(Matrix* features, int v, int j) {
  PEEGA_CHECK_GE(v, 0) << " in FlipFeature";
  PEEGA_CHECK_LT(v, features->rows()) << " in FlipFeature";
  PEEGA_CHECK_GE(j, 0) << " in FlipFeature";
  PEEGA_CHECK_LT(j, features->cols()) << " in FlipFeature";
  (*features)(v, j) = (*features)(v, j) > 0.5f ? 0.0f : 1.0f;
}

EdgeCandidate BestEdgeFlip(const Matrix& grad, const Matrix& dense_adjacency,
                           const AccessControl& access,
                           const FlipSet* exclude) {
  const int n = dense_adjacency.rows();
  const std::vector<FlipCandidate> best = TopFlips</*is_feature=*/false>(
      n, n, access, exclude, 1, [&](int u, int v) {
        const float direction = 1.0f - 2.0f * dense_adjacency(u, v);
        return direction * (grad(u, v) + grad(v, u));
      });
  if (best.empty()) return {-1, -1, -std::numeric_limits<float>::infinity()};
  return {best[0].flip.a, best[0].flip.b, best[0].score};
}

FeatureCandidate BestFeatureFlip(const Matrix& grad, const Matrix& features,
                                 const AccessControl& access,
                                 const FlipSet* exclude) {
  const std::vector<FlipCandidate> best = TopFlips</*is_feature=*/true>(
      features.rows(), features.cols(), access, exclude, 1,
      [&](int v, int j) {
        const float direction = 1.0f - 2.0f * features(v, j);
        return direction * grad(v, j);
      });
  if (best.empty()) return {-1, -1, -std::numeric_limits<float>::infinity()};
  return {best[0].flip.a, best[0].flip.b, best[0].score};
}

void KeepTop(std::vector<FlipCandidate>* candidates, int keep) {
  if (keep <= 0) return;
  const size_t take = std::min(candidates->size(), static_cast<size_t>(keep));
  std::partial_sort(candidates->begin(), candidates->begin() + take,
                    candidates->end(), RanksBefore);
  candidates->resize(take);
}

SparseMatrix DenseToAdjacency(const Matrix& dense) {
  PEEGA_CHECK_EQ(dense.rows(), dense.cols());
  std::vector<std::tuple<int, int, float>> triplets;
  for (int u = 0; u < dense.rows(); ++u) {
    const float* row = dense.row(u);
    for (int v = 0; v < dense.cols(); ++v) {
      if (u != v && row[v] > 0.5f) triplets.emplace_back(u, v, 1.0f);
    }
  }
  return SparseMatrix::FromTriplets(dense.rows(), dense.cols(), triplets);
}

}  // namespace repro::attack
