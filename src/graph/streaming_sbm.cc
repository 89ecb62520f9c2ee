#include "graph/streaming_sbm.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "debug/check.h"
#include "linalg/sparse.h"

namespace repro::graph {

using linalg::Matrix;
using linalg::SparseMatrix;

StreamingSbm::StreamingSbm(const StreamingSbmConfig& config)
    : config_(config), rng_(config.seed) {
  PEEGA_CHECK_GE(config_.num_nodes, 2);
  PEEGA_CHECK_GE(config_.num_classes, 1);
  PEEGA_CHECK_LE(config_.num_classes, config_.num_nodes);
  PEEGA_CHECK_GE(config_.feature_dim, config_.num_classes);
  target_edges_ = static_cast<int64_t>(
      std::llround(config_.num_nodes * config_.avg_degree / 2.0));
  // A simple graph on the smallest class block caps how many intra-class
  // edges exist; the caller asking for more than the complete graph is a
  // configuration error, not a sampling problem.
  const int64_t n = config_.num_nodes;
  PEEGA_CHECK_LE(target_edges_, n * (n - 1) / 2);
  neighbors_.resize(static_cast<size_t>(n));
}

int StreamingSbm::Label(int v) const {
  return static_cast<int>(static_cast<int64_t>(v) * config_.num_classes /
                          config_.num_nodes);
}

std::pair<int, int> StreamingSbm::ClassRange(int c) const {
  const int64_t n = config_.num_nodes;
  const int64_t k = config_.num_classes;
  return {static_cast<int>(c * n / k), static_cast<int>((c + 1) * n / k)};
}

bool StreamingSbm::HasEdge(int u, int v) const {
  const auto& list = neighbors_[static_cast<size_t>(u)];
  return std::binary_search(list.begin(), list.end(), v);
}

void StreamingSbm::Insert(int u, int v) {
  auto& ulist = neighbors_[static_cast<size_t>(u)];
  ulist.insert(std::lower_bound(ulist.begin(), ulist.end(), v), v);
  auto& vlist = neighbors_[static_cast<size_t>(v)];
  vlist.insert(std::lower_bound(vlist.begin(), vlist.end(), u), u);
}

bool StreamingSbm::Next(std::pair<int, int>* edge) {
  if (emitted_ >= target_edges_) return false;
  const int n = config_.num_nodes;
  // Rejection sampling over (endpoint, partner) draws; duplicates and
  // self-loops retry. The bound is generous — at the sparse densities
  // this generator targets, rejections are rare — and keeps a
  // misconfigured near-complete block from spinning forever.
  const int64_t max_attempts = 200 * (target_edges_ - emitted_) + 1000;
  for (int64_t attempt = 0; attempt < max_attempts; ++attempt) {
    const int u = static_cast<int>(rng_.UniformInt(0, n - 1));
    int v;
    if (rng_.Bernoulli(config_.homophily)) {
      const auto [lo, hi] = ClassRange(Label(u));
      if (hi - lo < 2) continue;  // singleton block has no intra edge
      v = static_cast<int>(rng_.UniformInt(lo, hi - 1));
    } else {
      const auto [lo, hi] = ClassRange(Label(u));
      const int outside = n - (hi - lo);
      if (outside < 1) continue;  // single class: no inter edge exists
      v = static_cast<int>(rng_.UniformInt(0, outside - 1));
      if (v >= lo) v += hi - lo;  // skip over u's block
    }
    if (u == v || HasEdge(u, v)) continue;
    Insert(u, v);
    ++emitted_;
    *edge = {std::min(u, v), std::max(u, v)};
    return true;
  }
  // Sampling starved (pathological density): end the stream early with
  // the edges emitted so far rather than aborting a campaign.
  target_edges_ = emitted_;
  return false;
}

Graph StreamingSbm::Materialize() {
  std::pair<int, int> edge;
  while (Next(&edge)) {
  }
  const int n = config_.num_nodes;

  Graph g;
  g.name = config_.name;
  g.num_nodes = n;
  g.num_classes = config_.num_classes;
  g.labels.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) g.labels[static_cast<size_t>(v)] = Label(v);

  // The sorted neighbor lists already ARE the CSR structure.
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  for (int u = 0; u < n; ++u) {
    row_ptr[static_cast<size_t>(u) + 1] =
        row_ptr[static_cast<size_t>(u)] +
        static_cast<int64_t>(neighbors_[static_cast<size_t>(u)].size());
  }
  std::vector<int> col_idx;
  col_idx.reserve(static_cast<size_t>(row_ptr.back()));
  for (const auto& list : neighbors_) {
    col_idx.insert(col_idx.end(), list.begin(), list.end());
  }
  std::vector<float> values(col_idx.size(), 1.0f);
  g.adjacency = SparseMatrix::FromCsr(n, n, std::move(row_ptr),
                                      std::move(col_idx), std::move(values));

  // Class-conditional topic features: class c owns a contiguous block of
  // dimensions; each node fires `active_features` of them, from its own
  // block with probability feature_signal (the SyntheticConfig model,
  // restated on a smaller default F so the matrix stays O(N)).
  const int f = config_.feature_dim;
  const int block = std::max(1, f / config_.num_classes);
  g.features = Matrix(n, f);
  for (int v = 0; v < n; ++v) {
    const int start = std::min(Label(v) * block, f - block);
    for (int a = 0; a < config_.active_features; ++a) {
      const int dim =
          rng_.Bernoulli(config_.feature_signal)
              ? start + static_cast<int>(rng_.UniformInt(0, block - 1))
              : static_cast<int>(rng_.UniformInt(0, f - 1));
      g.features(v, dim) = 1.0f;
    }
  }

  AssignSplits(&g, config_.train_frac, config_.val_frac, &rng_);
  return g;
}

}  // namespace repro::graph
