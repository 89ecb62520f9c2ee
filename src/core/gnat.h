#ifndef PEEGA_CORE_GNAT_H_
#define PEEGA_CORE_GNAT_H_

#include "defense/defender.h"
#include "nn/gcn.h"

namespace repro::core {

/// GNAT — the paper's GNN defender based on graph augmeNtATions
/// (Sec. IV-B).
///
/// From the (poisoned) input graph GNAT derives three augmented graphs
/// that make node contexts distinguishable again after attacks that blur
/// them (Sec. IV-A insight: attackers mostly ADD inter-class edges):
///
///  * topology graph  Â^t : edge (v, u) iff u is reachable from v within
///    k_t hops — same-label nodes tend to share neighborhoods;
///  * feature graph   Â^f : edge (v, u) iff u is among v's top-k_f
///    cosine-similar nodes (graph::FeatureKnnGraph) — features are
///    rarely attacked (Sec. V-D1);
///  * ego graph       Â^e = Â + k_e I — each node's own features are
///    emphasized against poisoned neighborhoods.
///
/// One GCN (shared weights) is trained jointly on the selected views; the
/// final prediction averages the per-view outputs Z = mean(Z^t, Z^f,
/// Z^e). That shared-weight model is an nn::Model trained by
/// nn::TrainNodeClassifier, like every other defender's. The
/// `merge_views` mode instead unions the views' edges into a single
/// graph (the GNAT-tf/te/fe/tfe ablations of Tab. IX, which the paper
/// shows to be inferior to multi-view training).
///
/// GNAT is black-box compatible: it needs no clean graph, no attack
/// knowledge, and no extra labels.
class GnatDefender : public defense::Defender {
 public:
  struct Options {
    int k_t = 2;
    int k_f = 15;
    int k_e = 10;
    bool use_topology = true;
    bool use_feature = true;
    bool use_ego = true;
    bool merge_views = false;
    /// The edge-REMOVAL extension from the paper's conclusion ("we may
    /// remove some noises in the poison graph introduced by attackers"):
    /// before building the views, edges whose endpoints have Jaccard
    /// feature similarity below this threshold are dropped. 0 disables
    /// pruning (the paper's GNAT); requires usable (non-identity)
    /// features.
    float prune_threshold = 0.0f;
    nn::Gcn::Options gcn;
  };

  GnatDefender();
  explicit GnatDefender(const Options& options);

  std::string name() const override;
  defense::DefenseReport Run(const graph::Graph& g,
                             const nn::TrainOptions& train_options,
                             linalg::Rng* rng) override;

  /// k_t-hop topology augmentation (k_t <= 1 returns the input).
  static linalg::SparseMatrix BuildTopologyGraph(
      const linalg::SparseMatrix& adjacency, int k_t);

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace repro::core

#endif  // PEEGA_CORE_GNAT_H_
