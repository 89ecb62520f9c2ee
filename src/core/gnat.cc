#include "core/gnat.h"

#include <tuple>
#include <utility>
#include <vector>

#include "autograd/tape.h"
#include "debug/check.h"
#include "linalg/ops.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace repro::core {

using autograd::Tape;
using autograd::Var;
using linalg::Matrix;
using linalg::SparseMatrix;

GnatDefender::GnatDefender() : options_(Options()) {}
GnatDefender::GnatDefender(const Options& options) : options_(options) {}

std::string GnatDefender::name() const {
  std::string suffix;
  if (options_.use_topology) suffix += "t";
  if (options_.use_feature) suffix += "f";
  if (options_.use_ego) suffix += "e";
  if (options_.use_topology && options_.use_feature && options_.use_ego &&
      !options_.merge_views) {
    return "GNAT";
  }
  return "GNAT-" + std::string(options_.merge_views ? "" : "+") + suffix;
}

SparseMatrix GnatDefender::BuildTopologyGraph(const SparseMatrix& adjacency,
                                              int k_t) {
  const obs::TraceSpan span("gnat.build_topology_graph");
  if (k_t <= 1) return adjacency;
  return graph::KHopAdjacency(adjacency, k_t);
}

namespace {

/// Normalized propagation matrices of the active views for graph `input`.
std::vector<SparseMatrix> BuildViews(const GnatDefender::Options& options,
                                     const graph::Graph& input) {
  const obs::TraceSpan span("gnat.build_views");
  // Optional pruning pass (conclusion extension): drop edges whose
  // endpoints look feature-dissimilar — candidates for adversarial
  // inter-class additions.
  // Only the adjacency can change, so only a pruned one is held; X and
  // the node count are read from `input`.
  SparseMatrix pruned;
  const SparseMatrix* adjacency = &input.adjacency;
  if (options.prune_threshold > 0.0f) {
    std::vector<std::pair<int, int>> kept;
    for (const auto& [u, v] : input.EdgeList()) {
      if (linalg::JaccardSimilarity(input.features, u, v) >=
          options.prune_threshold) {
        kept.emplace_back(u, v);
      }
    }
    // Safety valve: with degenerate features (e.g. identity matrices the
    // similarity is 0 everywhere) pruning would delete the whole graph;
    // keep the topology when less than a quarter of the edges survive.
    if (kept.size() * 4 >= static_cast<size_t>(input.NumEdges())) {
      pruned = graph::AdjacencyFromEdges(input.num_nodes, kept);
      adjacency = &pruned;
    }
  }
  std::vector<SparseMatrix> views;
  SparseMatrix feature_graph;
  bool feature_available = false;
  if (options.use_feature) {
    const obs::TraceSpan feature_span("gnat.build_feature_graph");
    feature_graph = graph::FeatureKnnGraph(input.features, options.k_f, 1e-6f);
    // Identity features (Polblogs) give an empty cosine graph; the view
    // is then dropped as in the paper's Tab. VI footnote.
    feature_available = feature_graph.nnz() > 0;
  }

  if (options.merge_views) {
    // Union of the selected views' edges in a single graph.
    std::vector<std::tuple<int, int, float>> triplets;
    auto append = [&triplets](const SparseMatrix& m) {
      const auto& row_ptr = m.row_ptr();
      const auto& col_idx = m.col_idx();
      for (int u = 0; u < m.rows(); ++u) {
        for (int64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
          triplets.emplace_back(u, col_idx[k], 1.0f);
        }
      }
    };
    if (options.use_topology) {
      append(GnatDefender::BuildTopologyGraph(*adjacency, options.k_t));
    }
    if (feature_available) append(feature_graph);
    if (options.use_ego || triplets.empty()) append(*adjacency);
    SparseMatrix merged =
        SparseMatrix::FromTriplets(input.num_nodes, input.num_nodes, triplets);
    for (float& v : merged.mutable_values()) v = v > 0.0f ? 1.0f : 0.0f;
    const float self_weight =
        options.use_ego ? static_cast<float>(options.k_e) + 1.0f : 1.0f;
    views.push_back(graph::GcnNormalizeWeighted(merged, self_weight));
    return views;
  }

  if (options.use_topology) {
    views.push_back(graph::GcnNormalize(
        GnatDefender::BuildTopologyGraph(*adjacency, options.k_t)));
  }
  if (feature_available) {
    views.push_back(graph::GcnNormalize(feature_graph));
  }
  if (options.use_ego) {
    views.push_back(graph::GcnNormalizeWeighted(
        *adjacency, static_cast<float>(options.k_e) + 1.0f));
  }
  if (views.empty()) {
    views.push_back(graph::GcnNormalize(*adjacency));
  }
  return views;
}

/// The shared-weight GCN over GNAT's views as one model: `Forward` runs
/// the GCN on every view and averages the logits.
class GnatModel : public nn::Model {
 public:
  GnatModel(const GnatDefender::Options& options, const graph::Graph& g,
            linalg::Rng* rng)
      : options_(options),
        gcn_(g.features.cols(), g.num_classes, options.gcn, rng) {}

  void Prepare(const graph::Graph& g) override {
    views_.clear();
    for (SparseMatrix& view : BuildViews(options_, g)) {
      views_.emplace_back(std::move(view));
    }
    PEEGA_CHECK_GT(views_.size(), 0u);
    features_ = SparseMatrix::FromDense(g.features);
  }

  Forwarded Forward(Tape* tape, const graph::Graph& g, bool training,
                    linalg::Rng* rng) override {
    const obs::TraceSpan span("gnat.forward_views");
    static obs::Counter* const epochs = obs::GetCounter("gnat.epochs");
    if (training) epochs->Add(1);
    Forwarded result;
    PEEGA_CHECK_EQ(g.features.rows(), features_.rows())
        << " — Forward on a graph other than the one Prepare saw";
    result.bound = gcn_.BindParameters(tape);
    for (size_t i = 0; i < views_.size(); ++i) {
      Var z = gcn_.ForwardWithPropagation(tape, views_[i], features_,
                                          result.bound, training, rng);
      result.logits = i == 0 ? z : tape->Add(result.logits, z);
    }
    if (views_.size() > 1) {
      result.logits = tape->Scale(
          result.logits, 1.0f / static_cast<float>(views_.size()));
    }
    return result;
  }

  std::vector<Matrix*> Parameters() override { return gcn_.Parameters(); }

 private:
  const GnatDefender::Options& options_;
  nn::Gcn gcn_;
  // Cached by Prepare.
  std::vector<autograd::ConstSparse> views_;
  SparseMatrix features_;
};

}  // namespace

defense::DefenseReport GnatDefender::Run(
    const graph::Graph& g, const nn::TrainOptions& train_options,
    linalg::Rng* rng) {
  const obs::TraceSpan run_span("gnat.run");
  const obs::StopWatch watch;
  GnatModel model(options_, g, rng);
  return TrainAndReport(&model, g, train_options, rng, watch);
}

}  // namespace repro::core
