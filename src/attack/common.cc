#include "attack/common.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/attacker.h"
#include "debug/check.h"
#include "graph/graph.h"

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

void CommitEdgeFlips(const graph::Graph& g,
                     const std::vector<std::pair<int, int>>& pairs,
                     AttackResult* result) {
  for (const auto& [u, v] : pairs) {
    result->flips.push_back({false, std::min(u, v), std::max(u, v)});
    ++result->edge_modifications;
  }
  result->poisoned = g.WithAdjacency(graph::WithFlips(g.adjacency, pairs));
}

}  // namespace repro::attack
