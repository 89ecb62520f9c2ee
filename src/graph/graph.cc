#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "debug/check.h"
#include "linalg/ops.h"
#include "linalg/random.h"

namespace repro::graph {

using linalg::Matrix;
using linalg::SparseMatrix;

std::vector<int> Graph::Neighbors(int v) const {
  PEEGA_CHECK_GE(v, 0);
  PEEGA_CHECK_LT(v, num_nodes);
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  return std::vector<int>(col_idx.begin() + row_ptr[v],
                          col_idx.begin() + row_ptr[v + 1]);
}

std::vector<std::pair<int, int>> Graph::EdgeList() const {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(adjacency.nnz() / 2);
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  for (int u = 0; u < num_nodes; ++u) {
    for (int64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
      const int v = col_idx[k];
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

Matrix Graph::OneHotLabels() const {
  Matrix y(num_nodes, num_classes);
  for (int v = 0; v < num_nodes; ++v) {
    if (labels[v] >= 0) y(v, labels[v]) = 1.0f;
  }
  return y;
}

std::vector<float> Graph::NodeMask(const std::vector<int>& nodes) const {
  std::vector<float> mask(num_nodes, 0.0f);
  for (int v : nodes) {
    PEEGA_CHECK_GE(v, 0);
    PEEGA_CHECK_LT(v, num_nodes);
    mask[v] = 1.0f;
  }
  return mask;
}

Graph Graph::WithAdjacency(SparseMatrix new_adjacency) const {
  return WithAdjacencyAndFeatures(std::move(new_adjacency), features);
}

Graph Graph::WithFeatures(Matrix new_features) const {
  return WithAdjacencyAndFeatures(adjacency, std::move(new_features));
}

Graph Graph::WithAdjacencyAndFeatures(SparseMatrix new_adjacency,
                                      Matrix new_features) const {
  // Every other member, copied; keep in step with the struct.
  Graph g;
  g.num_nodes = num_nodes;
  g.num_classes = num_classes;
  g.adjacency = std::move(new_adjacency);
  g.features = std::move(new_features);
  g.labels = labels;
  g.train_nodes = train_nodes;
  g.val_nodes = val_nodes;
  g.test_nodes = test_nodes;
  g.name = name;
  return g;
}

void Graph::CheckInvariants() const {
  PEEGA_CHECK_EQ(adjacency.rows(), num_nodes);
  PEEGA_CHECK_EQ(adjacency.cols(), num_nodes);
  PEEGA_CHECK_EQ(features.rows(), num_nodes);
  PEEGA_CHECK_EQ(static_cast<int>(labels.size()), num_nodes);
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  const auto& values = adjacency.values();
  for (int u = 0; u < num_nodes; ++u) {
    for (int64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
      const int v = col_idx[k];
      PEEGA_CHECK_NE(u, v);                          // no self-loops
      PEEGA_CHECK(std::fabs(values[k] - 1.0f) < 1e-6);  // binary
      PEEGA_CHECK(adjacency.At(v, u) > 0.0f);        // symmetric
    }
  }
  for (int v = 0; v < num_nodes; ++v) {
    PEEGA_CHECK_GE(labels[v], -1);
    PEEGA_CHECK_LT(labels[v], num_classes);
  }
}

SparseMatrix GcnNormalize(const SparseMatrix& adjacency) {
  return GcnNormalizeWeighted(adjacency, 1.0f);
}

SparseMatrix GcnNormalizeWeighted(const SparseMatrix& adjacency,
                                  float self_loop_weight) {
  const int n = adjacency.rows();
  PEEGA_CHECK_EQ(n, adjacency.cols());
  std::vector<float> degree(n, self_loop_weight);
  const auto& row_ptr = adjacency.row_ptr();
  const auto& values = adjacency.values();
  for (int u = 0; u < n; ++u) {
    for (int64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
      degree[u] += values[k];
    }
  }
  const std::vector<float> inv_sqrt = linalg::RSqrt(degree);
  std::vector<std::tuple<int, int, float>> triplets;
  triplets.reserve(adjacency.nnz() + n);
  const auto& col_idx = adjacency.col_idx();
  for (int u = 0; u < n; ++u) {
    if (self_loop_weight > 0.0f) {
      triplets.emplace_back(u, u,
                            self_loop_weight * inv_sqrt[u] * inv_sqrt[u]);
    }
    for (int64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
      const int v = col_idx[k];
      triplets.emplace_back(u, v, values[k] * inv_sqrt[u] * inv_sqrt[v]);
    }
  }
  return SparseMatrix::FromTriplets(n, n, triplets);
}

SparseMatrix KHopAdjacency(const SparseMatrix& adjacency, int k) {
  PEEGA_CHECK_GE(k, 1);
  const int n = adjacency.rows();
  std::vector<std::tuple<int, int, float>> triplets;
  std::vector<int> dist(n, -1);
  std::vector<int> touched;
  for (int src = 0; src < n; ++src) {
    // BFS truncated at depth k.
    std::queue<int> frontier;
    frontier.push(src);
    dist[src] = 0;
    touched.clear();
    touched.push_back(src);
    while (!frontier.empty()) {
      const int u = frontier.front();
      frontier.pop();
      if (dist[u] >= k) continue;
      const auto& row_ptr = adjacency.row_ptr();
      const auto& col_idx = adjacency.col_idx();
      for (int64_t e = row_ptr[u]; e < row_ptr[u + 1]; ++e) {
        const int v = col_idx[e];
        if (dist[v] != -1) continue;
        dist[v] = dist[u] + 1;
        touched.push_back(v);
        frontier.push(v);
        triplets.emplace_back(src, v, 1.0f);
      }
    }
    for (int v : touched) dist[v] = -1;
  }
  return SparseMatrix::FromTriplets(n, n, triplets);
}

SparseMatrix FeatureKnnGraph(const Matrix& x, int k, float min_similarity) {
  const int n = x.rows();
  const std::vector<std::vector<int>> top =
      linalg::TopCosineNeighbors(x, k, min_similarity);
  std::vector<std::tuple<int, int, float>> triplets;
  for (int i = 0; i < n; ++i) {
    for (const int j : top[static_cast<size_t>(i)]) {
      triplets.emplace_back(i, j, 1.0f);
      triplets.emplace_back(j, i, 1.0f);
    }
  }
  SparseMatrix knn = SparseMatrix::FromTriplets(n, n, triplets);
  for (float& v : knn.mutable_values()) v = v > 0.0f ? 1.0f : 0.0f;
  return knn;
}

SparseMatrix AdjacencyFromEdges(
    int num_nodes, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::tuple<int, int, float>> triplets;
  triplets.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    PEEGA_CHECK_NE(u, v);
    triplets.emplace_back(u, v, 1.0f);
    triplets.emplace_back(v, u, 1.0f);
  }
  SparseMatrix adj =
      SparseMatrix::FromTriplets(num_nodes, num_nodes, triplets);
  // Clamp duplicate edges back to 1.
  for (float& v : adj.mutable_values()) v = v > 0.0f ? 1.0f : 0.0f;
  return adj;
}

SparseMatrix WithFlips(const linalg::SparseMatrix& adjacency,
                       const std::vector<std::pair<int, int>>& flips) {
  const int n = adjacency.rows();
  PEEGA_CHECK_EQ(n, adjacency.cols());
  if (flips.empty()) return adjacency;
  // Directed toggle keys, parity-cancelled: flipping a pair twice is the
  // identity, so only keys with an odd count survive.
  std::vector<int64_t> keys;
  keys.reserve(flips.size() * 2);
  for (const auto& [u, v] : flips) {
    PEEGA_CHECK_NE(u, v) << " — self-loop flips are not valid edges";
    PEEGA_CHECK_GE(u, 0);
    PEEGA_CHECK_LT(u, n);
    PEEGA_CHECK_GE(v, 0);
    PEEGA_CHECK_LT(v, n);
    keys.push_back(static_cast<int64_t>(u) * n + v);
    keys.push_back(static_cast<int64_t>(v) * n + u);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<int64_t> toggles;
  toggles.reserve(keys.size());
  for (size_t i = 0; i < keys.size();) {
    size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    if ((j - i) % 2 == 1) toggles.push_back(keys[i]);
    i = j;
  }

  // Per-row sorted merge of the clean columns with the row's toggles:
  // a toggle matching a stored column removes it, any other toggle
  // inserts. Rows come out with ascending, unique columns and value
  // 1.0f, so the arrays are DenseToAdjacency's CSR as they stand.
  const auto& row_ptr = adjacency.row_ptr();
  const auto& col_idx = adjacency.col_idx();
  std::vector<int64_t> out_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int> out_col;
  out_col.reserve(static_cast<size_t>(adjacency.nnz()) + toggles.size());
  size_t t = 0;
  for (int u = 0; u < n; ++u) {
    const int64_t row_end = static_cast<int64_t>(u) * n + n;
    int64_t k = row_ptr[u];
    while (k < row_ptr[u + 1] || (t < toggles.size() && toggles[t] < row_end)) {
      const int64_t have =
          k < row_ptr[u + 1] ? static_cast<int64_t>(u) * n + col_idx[k]
                             : row_end;
      const int64_t want = t < toggles.size() && toggles[t] < row_end
                               ? toggles[t]
                               : row_end;
      if (have < want) {
        out_col.push_back(col_idx[k]);  // untouched edge
        ++k;
      } else if (want < have) {
        out_col.push_back(static_cast<int>(want - static_cast<int64_t>(u) * n));
        ++t;  // added edge
      } else {
        ++k;  // removed edge
        ++t;
      }
    }
    out_ptr[static_cast<size_t>(u) + 1] = static_cast<int64_t>(out_col.size());
  }
  std::vector<float> values(out_col.size(), 1.0f);
  return SparseMatrix::FromCsr(n, n, std::move(out_ptr), std::move(out_col),
                               std::move(values));
}

SparseMatrix CsrFlipEdge(const linalg::SparseMatrix& adjacency, int u,
                         int v) {
  return WithFlips(adjacency, {{u, v}});
}

void AssignSplits(Graph* g, double train_frac, double val_frac,
                  linalg::Rng* rng) {
  const std::vector<int> perm = rng->Permutation(g->num_nodes);
  const int n_train = static_cast<int>(train_frac * g->num_nodes);
  const int n_val = static_cast<int>(val_frac * g->num_nodes);
  g->train_nodes.assign(perm.begin(), perm.begin() + n_train);
  g->val_nodes.assign(perm.begin() + n_train,
                      perm.begin() + n_train + n_val);
  g->test_nodes.assign(perm.begin() + n_train + n_val, perm.end());
}

}  // namespace repro::graph
