#ifndef PEEGA_EVAL_REGISTRY_H_
#define PEEGA_EVAL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "defense/defender.h"

namespace repro::eval {

/// Fields of an attack op. The member initialisers are the defaults of
/// every front end (CLI, C ABI, job server); eval/op_schema.h declares
/// each field's wire name and range. Non-PEEGA attackers ignore the
/// PEEGA fields.
struct AttackerSpec {
  /// One of AttackerNames().
  std::string name = "peega";
  double rate = 0.1;          // perturbation rate: budget = rate * #edges
  double feature_cost = 1.0;  // beta: cost of one feature flip vs one edge
  double lambda = 0.01;
  int norm_p = 2;
  int layers = 2;
  int batch_size = 16;        // peega-batch only
  std::string mode = "both";  // "both" | "tm" | "fp"
  std::string checkpoint_path;
  int checkpoint_every = 16;
  uint64_t seed = 42;
};

/// Fields of an eval op: `runs` seeded training runs of one defender.
struct EvalSpec {
  /// One of DefenderNames().
  std::string defender = "gnat";
  int runs = 3;
  uint64_t seed = 42;
};

/// Single name->implementation factory shared by every front end (CLI,
/// C ABI, job server), so the set of reachable attackers/defenders
/// cannot drift between entry points. Returns nullptr for an unknown
/// name.
std::unique_ptr<attack::Attacker> MakeAttackerByName(
    const AttackerSpec& spec);
std::unique_ptr<defense::Defender> MakeDefenderByName(
    const std::string& name);

/// The names the two factories accept, in registration order.
std::vector<std::string> AttackerNames();
std::vector<std::string> DefenderNames();

}  // namespace repro::eval

#endif  // PEEGA_EVAL_REGISTRY_H_
