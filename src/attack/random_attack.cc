#include "attack/random_attack.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "attack/common.h"
#include "obs/stopwatch.h"

namespace repro::attack {

AttackResult RandomAttack::Attack(const graph::Graph& g,
                                  const AttackOptions& options,
                                  linalg::Rng* rng) {
  const obs::StopWatch watch;
  const int budget = ComputeBudget(g, options.perturbation_rate);
  const AccessControl access(g.num_nodes, options.attacker_nodes);
  AttackResult result;
  int attempts = 0;
  const int max_attempts = budget * 200 + 1000;
  // A pair is drawn at most once: a second toggle would cancel the first
  // in graph::WithFlips and spend budget on no net change.
  FlipSet drawn(g.num_nodes);
  std::vector<std::pair<int, int>> pairs;
  while (static_cast<int>(pairs.size()) < budget &&
         attempts++ < max_attempts) {
    result.status = options.deadline.Check(name() + " flip " +
                                           std::to_string(pairs.size()));
    if (!result.status.ok()) break;  // flips so far form the result
    const int u = static_cast<int>(rng->UniformInt(0, g.num_nodes - 1));
    const int v = static_cast<int>(rng->UniformInt(0, g.num_nodes - 1));
    if (u == v || !access.EdgeAllowed(u, v)) continue;
    const int a = std::min(u, v);
    const int b = std::max(u, v);
    if (drawn.Contains(a, b)) continue;
    drawn.Insert(a, b);
    pairs.emplace_back(a, b);
  }
  CommitEdgeFlips(g, pairs, &result);
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace repro::attack
