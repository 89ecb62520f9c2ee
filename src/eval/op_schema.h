#ifndef PEEGA_EVAL_OP_SCHEMA_H_
#define PEEGA_EVAL_OP_SCHEMA_H_

#include <string>
#include <vector>

#include "attack/attacker.h"
#include "eval/args.h"
#include "eval/pipeline.h"
#include "eval/registry.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "status/deadline.h"
#include "status/status.h"

namespace repro::eval {

/// The attack and eval op schema: one field list per op (op_schema.cc)
/// gives each field its wire name, its AttackerSpec / EvalSpec member,
/// and its range or choices; the member initialisers are the defaults.
/// The job server reads a request object with ReadJson, the CLI reads
/// its flags with ReadFlags (flag = wire name with '_' -> '-'), and the
/// C ABI checks the struct it was handed with Validate. Every refusal
/// is INVALID_INPUT naming the field.
///
/// `Spec` is AttackerSpec or EvalSpec.

/// Checks every field of `spec`: numbers finite and in range (integer
/// fields integral), choices among the allowed names.
template <typename Spec>
status::Status Validate(const Spec& spec);

/// Reads the members of a JSON object into `spec`: every key must be a
/// field of the op, of the field's type and in its range. Absent fields
/// keep their current value.
template <typename Spec>
status::Status ReadJson(const obs::Json& object, Spec* spec);

/// Reads the op's flags from `args` into `spec`. Flags that are neither
/// a field nor in `extra` (the command's own flags) are refused, as are
/// numbers that do not parse in full.
template <typename Spec>
status::Status ReadFlags(const Args& args,
                         const std::vector<std::string>& extra, Spec* spec);

/// One "[--flag default]" usage token per field, in field-list order.
template <typename Spec>
std::vector<std::string> FlagUsage();

/// The attack op: validates `spec`, builds its attacker and runs it once
/// on `g` under `deadline`, seeded with `spec.seed`. An invalid spec
/// comes back as an INVALID_INPUT `result.status` with nothing attacked.
struct AttackRun {
  std::string attacker;  // display name, e.g. "PEEGA"
  attack::AttackResult result;
};
AttackRun RunAttackOp(const graph::Graph& g, const AttackerSpec& spec,
                      const status::Deadline& deadline);

/// The eval op: validates `spec` and runs EvaluateDefense for its
/// defender, runs and seed under `deadline`.
struct EvalRun {
  std::string defender;  // display name, e.g. "GNAT"
  DefenseEvaluation evaluation;
};
EvalRun RunEvalOp(const graph::Graph& g, const EvalSpec& spec,
                  const status::Deadline& deadline);

}  // namespace repro::eval

#endif  // PEEGA_EVAL_OP_SCHEMA_H_
