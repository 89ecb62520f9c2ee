#ifndef PEEGA_ATTACK_ATTACKER_H_
#define PEEGA_ATTACK_ATTACKER_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "linalg/random.h"
#include "status/deadline.h"
#include "status/status.h"

namespace repro::attack {

/// Shared attack configuration.
///
/// The budget follows the paper: delta = perturbation_rate * ||A||_0
/// where ||A||_0 is the number of undirected edges. One edge flip costs
/// 1; one feature-bit flip costs `feature_cost` (the beta of Fig. 5b;
/// 1.0 = the paper's default equal-cost setting).
struct AttackOptions {
  double perturbation_rate = 0.1;
  double feature_cost = 1.0;
  /// Nodes the attacker controls. Empty = all nodes. An edge (u, v) is
  /// modifiable iff at least one endpoint is controlled; a feature row
  /// is modifiable iff its node is controlled (Fig. 7a study).
  std::vector<int> attacker_nodes;
  /// Wall-clock budget / cancellation for the attack loop. Default is
  /// unbounded (checks cost nothing). On expiry or cancellation the
  /// attacker stops committing flips and returns its best-so-far result
  /// with `AttackResult::status` non-OK — never aborts.
  status::Deadline deadline;
};

/// One committed perturbation. For an edge flip `a`/`b` are the endpoints
/// (a < b); for a feature flip `a` is the node and `b` the dimension.
struct Flip {
  bool is_feature = false;
  int a = -1;
  int b = -1;

  friend bool operator==(const Flip& x, const Flip& y) {
    return x.is_feature == y.is_feature && x.a == y.a && x.b == y.b;
  }
  friend bool operator!=(const Flip& x, const Flip& y) { return !(x == y); }
};

struct AttackResult {
  graph::Graph poisoned;
  int edge_modifications = 0;
  int feature_modifications = 0;
  /// Wall-clock seconds spent inside Attack() (Tab. VII).
  double elapsed_seconds = 0.0;
  /// Committed perturbations in commit order, filled by every attacker;
  /// the differential tests diff these sequences between PEEGA's tape
  /// and incremental engines, and replay them against `poisoned`.
  std::vector<Flip> flips;
  /// Final value of the attacker's objective on the poisoned graph, when
  /// the attacker has one (PEEGA: the Def. 3 objective; Metattack: the
  /// attack loss). 0 otherwise.
  double final_objective = 0.0;
  /// OK for a completed attack. kDeadlineExceeded / kCancelled /
  /// kNumericFault when the loop stopped early — `poisoned` then holds
  /// the best-so-far graph (the flips committed up to the stop are a
  /// prefix of the unbounded run's flips).
  status::Status status;
};

/// Interface of graph adversarial attackers.
///
/// Every attacker receives the full `Graph`, but what it may read is part
/// of its contract: black-box attackers (PEEGA, GF-Attack) use only the
/// adjacency and features; gray-box attackers (Metattack) additionally
/// use training labels; white-box attackers (PGD, MinMax) also train and
/// read the victim model.
class Attacker {
 public:
  virtual ~Attacker() = default;

  virtual std::string name() const = 0;

  /// Produces a poisoned graph within the budget implied by `options`.
  virtual AttackResult Attack(const graph::Graph& g,
                              const AttackOptions& options,
                              linalg::Rng* rng) = 0;
};

/// Budget delta = rate * #edges (at least 1 when rate > 0).
int ComputeBudget(const graph::Graph& g, double perturbation_rate);

}  // namespace repro::attack

#endif  // PEEGA_ATTACK_ATTACKER_H_
