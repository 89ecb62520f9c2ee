#ifndef PEEGA_CORE_PEEGA_H_
#define PEEGA_CORE_PEEGA_H_

#include "attack/attacker.h"
#include "linalg/matrix.h"

namespace repro::core {

/// PEEGA — the paper's Practical, Effective and Efficient black-box GNN
/// Attacker (Sec. III).
///
/// PEEGA reads ONLY the graph topology A and node features X (no labels,
/// no model parameters, no model predictions). It maximizes the
/// single-level objective of Def. 3:
///
///   max  sum_v || (Â_n^l X̂)[v] - (A_n^l X)[v] ||_p                (self view)
///      + lambda * sum_v sum_{u in N_v} || (Â_n^l X̂)[v] - (A_n^l X)[u] ||_p
///                                                              (global view)
///   s.t. ||Â - A||_0 + beta ||X̂ - X||_0 <= delta
///
/// where A_n^l X is the model-agnostic surrogate representation (l = 2 by
/// default, Eq. 7) and N_v are the 1-hop neighbors in the ORIGINAL
/// topology. Optimization is the greedy gradient algorithm of Alg. 1:
/// each step scores all candidate flips by S = grad ⊙ (-2Â + 1)
/// (gradients through the differentiable dense GCN normalization) and
/// commits the best edge or feature flip.
///
/// Threading: the per-step O(n²) candidate scans and all underlying
/// kernels run on the `src/parallel` pool with deterministic static
/// chunking and a lowest-index tie-break, so the full greedy flip
/// sequence — and hence the poisoned graph — is bitwise-identical at
/// any thread count (asserted in tests/parallel_test.cc).
class PeegaAttack : public attack::Attacker {
 public:
  /// Which attack surfaces are enabled (Fig. 5a ablation).
  enum class Mode {
    kTopologyAndFeatures,  // TM+FP (default)
    kTopologyOnly,         // TM
    kFeaturesOnly,         // FP
  };

  /// Score oracle of the greedy loop, which PEEGA and PEEGA-Batch share
  /// (attack::GreedyCampaign in attack/greedy.h). Both oracles produce the SAME
  /// flip sequence (differentially tested in tests/engine_equiv_test.cc):
  ///   kIncremental — cached closed-form gradients with sparse delta
  ///     updates after each committed flip (core/peega_engine.h); the
  ///     default, and the one Tab. VII timings use.
  ///   kTape — attack::TapeOracle: re-derives every gradient through the
  ///     autograd tape each iteration; O(N²F) per pass. Kept as the
  ///     reference oracle.
  enum class Engine {
    kIncremental,
    kTape,
  };

  struct Options {
    /// Trade-off between self view and global view (Fig. 8a).
    float lambda = 0.01f;
    /// Norm p of the representation distance, in {1, 2, 3} (Fig. 8b).
    int norm_p = 2;
    /// Propagation depth l of the surrogate A_n^l X (Fig. 7b).
    int layers = 2;
    Mode mode = Mode::kTopologyAndFeatures;
    Engine engine = Engine::kIncremental;
    /// Targeted-attack extension (the "Goal" axis of Tab. I): when
    /// non-empty, the objective sums only over these victim nodes (and
    /// their neighbor pairs), concentrating the whole budget on
    /// misclassifying them. Empty = the paper's untargeted attack.
    std::vector<int> target_nodes;
    /// Campaign checkpointing (core/peega_checkpoint.h): when non-empty,
    /// the greedy loop writes its state here every `checkpoint_every`
    /// committed flips, and — when the file already exists — resumes
    /// from it by replaying the recorded flips. The PR-4 determinism
    /// contract makes the resumed run bitwise-identical to an
    /// uninterrupted one (tests/checkpoint_test.cc). A stale or corrupt
    /// checkpoint is rejected: the attack returns immediately with
    /// kInvalidInput and the clean graph.
    std::string checkpoint_path;
    int checkpoint_every = 16;
  };

  PeegaAttack();
  explicit PeegaAttack(const Options& options);

  std::string name() const override { return "PEEGA"; }
  attack::AttackResult Attack(const graph::Graph& g,
                              const attack::AttackOptions& options,
                              linalg::Rng* rng) override;

  /// The surrogate representation A_n^l X of Eq. 7 (exposed for tests
  /// and for the defender's analysis tooling).
  static linalg::Matrix SurrogateRepresentation(
      const linalg::SparseMatrix& adjacency, const linalg::Matrix& x,
      int layers);

  /// Value of the Def. 3 objective for a candidate poisoned graph;
  /// exposed for tests (monotonicity of the greedy loop) and ablations.
  double Objective(const graph::Graph& clean,
                   const linalg::Matrix& poisoned_dense_adjacency,
                   const linalg::Matrix& poisoned_features) const;

 private:
  Options options_;
};

}  // namespace repro::core

#endif  // PEEGA_CORE_PEEGA_H_
