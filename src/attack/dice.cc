#include "attack/dice.h"

#include <string>
#include <utility>
#include <vector>

#include "attack/common.h"
#include "graph/graph.h"
#include "obs/stopwatch.h"

namespace repro::attack {

DiceAttack::DiceAttack() : options_(Options()) {}
DiceAttack::DiceAttack(const Options& options) : options_(options) {}

AttackResult DiceAttack::Attack(const graph::Graph& g,
                                const AttackOptions& attack_options,
                                linalg::Rng* rng) {
  const obs::StopWatch watch;
  const int budget = ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);
  auto edges = g.EdgeList();

  AttackResult result;
  int attempts = 0;
  const int max_attempts = budget * 400 + 1000;
  // The current edge state is the clean CSR XOR the toggles committed so
  // far — no densified copy. `delta` holds the toggled pairs; `toggles`
  // records them in commit order for the final sparse rebuild. No pair
  // is toggled twice: additions join classes, deletions stay in one.
  FlipSet delta(g.num_nodes);
  std::vector<std::pair<int, int>> toggles;
  const auto has_edge_now = [&](int u, int v) {
    return (g.adjacency.At(u, v) > 0.0f) != delta.Contains(u, v);
  };
  while (static_cast<int>(toggles.size()) < budget &&
         attempts++ < max_attempts) {
    result.status = attack_options.deadline.Check(
        name() + " flip " + std::to_string(toggles.size()));
    if (!result.status.ok()) break;  // flips so far form the result
    int u;
    int v;
    if (rng->Bernoulli(options_.add_fraction)) {
      // Connect externally: add an inter-class edge.
      u = static_cast<int>(rng->UniformInt(0, g.num_nodes - 1));
      v = static_cast<int>(rng->UniformInt(0, g.num_nodes - 1));
      if (u == v || g.labels[u] == g.labels[v]) continue;
      if (has_edge_now(u, v) || !access.EdgeAllowed(u, v)) continue;
    } else {
      // Delete internally: remove an intra-class edge.
      if (edges.empty()) continue;
      const size_t pick =
          static_cast<size_t>(rng->UniformInt(0, edges.size() - 1));
      u = edges[pick].first;
      v = edges[pick].second;
      if (g.labels[u] != g.labels[v]) continue;
      if (!has_edge_now(u, v) || !access.EdgeAllowed(u, v)) continue;
    }
    delta.InsertSymmetric(u, v);
    toggles.emplace_back(u, v);
  }
  CommitEdgeFlips(g, toggles, &result);
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace repro::attack
