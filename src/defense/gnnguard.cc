#include "defense/gnnguard.h"

#include <algorithm>
#include <tuple>

#include "linalg/ops.h"
#include "obs/stopwatch.h"

namespace repro::defense {

using linalg::SparseMatrix;

GnnGuardDefender::GnnGuardDefender() : options_(Options()) {}
GnnGuardDefender::GnnGuardDefender(const Options& options)
    : options_(options) {}

SparseMatrix GnnGuardDefender::WeightedAdjacency(
    const graph::Graph& g) const {
  std::vector<std::tuple<int, int, float>> triplets;
  int kept = 0;
  for (const auto& [u, v] : g.EdgeList()) {
    const float sim = linalg::CosineSimilarity(g.features, u, v);
    if (sim < options_.prune_threshold) continue;
    const float w = std::max(sim, options_.min_weight);
    triplets.emplace_back(u, v, w);
    triplets.emplace_back(v, u, w);
    ++kept;
  }
  // Degenerate features (identity matrices) zero every similarity; fall
  // back to the unweighted topology rather than an empty graph.
  if (kept * 4 < g.NumEdges()) return g.adjacency;
  return SparseMatrix::FromTriplets(g.num_nodes, g.num_nodes, triplets);
}

DefenseReport GnnGuardDefender::Run(const graph::Graph& g,
                                    const nn::TrainOptions& train_options,
                                    linalg::Rng* rng) {
  const obs::StopWatch watch;
  graph::Graph guarded = g;
  guarded.adjacency = WeightedAdjacency(g);
  nn::Gcn model(g.features.cols(), g.num_classes, options_.gcn, rng);
  return TrainAndReport(&model, guarded, train_options, rng, watch);
}

}  // namespace repro::defense
