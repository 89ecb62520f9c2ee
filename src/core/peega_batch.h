#ifndef PEEGA_CORE_PEEGA_BATCH_H_
#define PEEGA_CORE_PEEGA_BATCH_H_

#include "attack/attacker.h"
#include "core/peega.h"

namespace repro::core {

/// PEEGA-Batch — the parallel-selection extension sketched in the
/// paper's conclusion ("Gumbel-Softmax sampling, which samples attacks
/// in a parallel manner, is a potential solution to make the attack
/// process more efficient").
///
/// Instead of committing ONE flip per gradient evaluation (Alg. 1,
/// complexity O(delta) gradient passes), each pass commits the top
/// `batch_size` candidates ranked by the same S = grad ⊙ (-2Â + 1)
/// score, optionally perturbing scores with Gumbel noise for
/// exploration. Complexity drops to O(delta / batch_size) gradient
/// passes at a small effectiveness cost — quantified by the
/// `ablation_batch` bench.
///
/// It runs PEEGA's own greedy loop, of which PeegaAttack is the
/// batch_size = 1, noise-free case, so it honours the whole PEEGA
/// contract: `peega.target_nodes`, `peega.checkpoint_path` resume
/// (checkpoints land on batch boundaries), the deadline and the
/// `peega.interrupt` failpoint, polled once per batch.
class PeegaBatchAttack : public attack::Attacker {
 public:
  struct Options {
    PeegaAttack::Options peega;
    int batch_size = 16;
    /// Scale of Gumbel(0,1) noise added to candidate scores before
    /// ranking (0 = deterministic top-k, the default).
    float gumbel_scale = 0.0f;
  };

  PeegaBatchAttack();
  explicit PeegaBatchAttack(const Options& options);

  std::string name() const override { return "PEEGA-Batch"; }
  attack::AttackResult Attack(const graph::Graph& g,
                              const attack::AttackOptions& options,
                              linalg::Rng* rng) override;

 private:
  Options options_;
};

}  // namespace repro::core

#endif  // PEEGA_CORE_PEEGA_BATCH_H_
