#include "defense/jaccard.h"

#include "debug/check.h"
#include "linalg/ops.h"
#include "obs/stopwatch.h"

namespace repro::defense {

JaccardDefender::JaccardDefender() : options_(Options()) {}
JaccardDefender::JaccardDefender(const Options& options)
    : options_(options) {}

graph::Graph JaccardDefender::Purify(const graph::Graph& g) const {
  PEEGA_CHECK_GE(options_.threshold, 0.0f)
      << " — Jaccard similarity is bounded to [0, 1]";
  PEEGA_CHECK_LE(options_.threshold, 1.0f)
      << " — Jaccard similarity is bounded to [0, 1]";
  std::vector<std::pair<int, int>> kept;
  for (const auto& [u, v] : g.EdgeList()) {
    if (linalg::JaccardSimilarity(g.features, u, v) >= options_.threshold) {
      kept.emplace_back(u, v);
    }
  }
  return g.WithAdjacency(graph::AdjacencyFromEdges(g.num_nodes, kept));
}

DefenseReport JaccardDefender::Run(const graph::Graph& g,
                                   const nn::TrainOptions& train_options,
                                   linalg::Rng* rng) {
  const obs::StopWatch watch;
  const graph::Graph purified = Purify(g);
  nn::Gcn model(g.features.cols(), g.num_classes, options_.gcn, rng);
  return TrainAndReport(&model, purified, train_options, rng, watch);
}

}  // namespace repro::defense
