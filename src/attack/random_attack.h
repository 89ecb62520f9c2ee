#ifndef PEEGA_ATTACK_RANDOM_ATTACK_H_
#define PEEGA_ATTACK_RANDOM_ATTACK_H_

#include "attack/attacker.h"

namespace repro::attack {

/// Baseline that flips uniformly random (allowed) edges, each pair at
/// most once, until the budget is exhausted. Serves as the sanity floor
/// every designed attacker must beat.
class RandomAttack : public Attacker {
 public:
  std::string name() const override { return "Random"; }
  AttackResult Attack(const graph::Graph& g, const AttackOptions& options,
                      linalg::Rng* rng) override;
};

}  // namespace repro::attack

#endif  // PEEGA_ATTACK_RANDOM_ATTACK_H_
