#ifndef PEEGA_ATTACK_METATTACK_H_
#define PEEGA_ATTACK_METATTACK_H_

#include "attack/attacker.h"

namespace repro::attack {

/// Metattack (Zügner & Günnemann, ICLR 2019), Meta-Self variant —
/// gray-box.
///
/// A linearized 2-layer GCN surrogate Z = softmax(A_n^2 X W) is trained
/// by `inner_steps` of gradient descent *inside the autodiff tape*, so
/// backpropagating the post-training attack loss through the unrolled
/// updates yields the exact meta-gradient with respect to the (relaxed,
/// dense) adjacency and features. Greedy selection then commits the
/// highest-scoring flip S = grad ⊙ (-2Â + 1) and repeats until the
/// budget is exhausted: PEEGA's campaign (attack/greedy.h) over a
/// TapeOracle of this loss, so the budget, freeze, tie-break, deadline
/// and fault contract are PEEGA's, and `final_objective` is the attack
/// loss on the poisoned graph.
///
/// Meta-Self: the inner training loss uses the true training labels
/// (gray-box input); the outer attack loss is evaluated on the unlabeled
/// nodes against self-trained pseudo-labels.
class Metattack : public Attacker {
 public:
  struct Options {
    int inner_steps = 25;
    float inner_lr = 1.0f;
    /// Also consider feature flips (Tab. I marks Metattack as covering
    /// both attack types).
    bool attack_features = true;
  };

  Metattack();
  explicit Metattack(const Options& options);

  std::string name() const override { return "Metattack"; }
  AttackResult Attack(const graph::Graph& g, const AttackOptions& options,
                      linalg::Rng* rng) override;

 private:
  Options options_;
};

inline Metattack::Metattack() : options_(Options()) {}
inline Metattack::Metattack(const Options& options) : options_(options) {}


}  // namespace repro::attack

#endif  // PEEGA_ATTACK_METATTACK_H_
