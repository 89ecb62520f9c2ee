#include "eval/op_schema.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <variant>

namespace repro::eval {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The interval a numeric field must lie in; every number must also be
// finite, and an integer field's integral.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
};

constexpr Range kAnyInt{-2147483648.0, 2147483647.0};
// Seeds cross the wire as JSON numbers, i.e. doubles, which hold every
// integer below 2^53 exactly.
constexpr Range kSeedRange{0.0, 9007199254740992.0, false, true};

std::vector<std::string> Modes() { return {"both", "tm", "fp"}; }

template <typename Spec>
struct Field {
  const char* name;  // wire name; the CLI flag swaps '_' for '-'
  std::variant<std::string Spec::*, double Spec::*, int Spec::*,
               uint64_t Spec::*>
      member;
  Range range = {};  // numeric fields
  std::vector<std::string> (*choices)() = nullptr;  // nullptr: free text
};

template <typename Spec>
const std::vector<Field<Spec>>& Fields();

template <>
const std::vector<Field<AttackerSpec>>& Fields<AttackerSpec>() {
  using S = AttackerSpec;
  static const std::vector<Field<S>> fields = {
      {.name = "attacker", .member = &S::name, .choices = &AttackerNames},
      {.name = "rate", .member = &S::rate, .range = {0.0, 1.0}},
      {.name = "feature_cost",
       .member = &S::feature_cost,
       .range = {.lo = 0.0, .lo_open = true}},
      {.name = "lambda", .member = &S::lambda},
      {.name = "p", .member = &S::norm_p, .range = kAnyInt},
      {.name = "layers", .member = &S::layers, .range = kAnyInt},
      {.name = "batch", .member = &S::batch_size, .range = kAnyInt},
      {.name = "mode", .member = &S::mode, .choices = &Modes},
      {.name = "checkpoint", .member = &S::checkpoint_path},
      {.name = "checkpoint_every",
       .member = &S::checkpoint_every,
       .range = kAnyInt},
      {.name = "seed", .member = &S::seed, .range = kSeedRange},
  };
  return fields;
}

template <>
const std::vector<Field<EvalSpec>>& Fields<EvalSpec>() {
  using S = EvalSpec;
  static const std::vector<Field<S>> fields = {
      {.name = "defender", .member = &S::defender, .choices = &DefenderNames},
      {.name = "runs", .member = &S::runs, .range = {1.0, 2147483647.0}},
      {.name = "seed", .member = &S::seed, .range = kSeedRange},
  };
  return fields;
}

// A field's value in wire form, before it is stored into the spec.
using Value = std::variant<std::string, double>;

template <typename Spec>
bool IsText(const Field<Spec>& field) {
  return std::holds_alternative<std::string Spec::*>(field.member);
}

template <typename Spec>
std::string FlagName(const Field<Spec>& field) {
  std::string flag = field.name;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

template <typename Spec>
std::string JsonLabel(const Field<Spec>& field) {
  return std::string("field \"") + field.name + "\"";
}

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // %.17g spells bounds exactly; a shorter %g reads better when exact.
  char brief[32];
  std::snprintf(brief, sizeof(brief), "%g", v);
  return std::strtod(brief, nullptr) == v ? brief : buf;
}

std::string Join(const std::vector<std::string>& items) {
  std::string joined;
  for (const std::string& item : items) {
    if (!joined.empty()) joined += "|";
    joined += item;
  }
  return joined;
}

template <typename Spec>
std::string Expected(const Field<Spec>& field) {
  if (IsText(field)) return "expected a string";
  return std::holds_alternative<double Spec::*>(field.member)
             ? "expected a number"
             : "expected an integer";
}

// Empty when `value` is legal for `field`, else what is wrong with it.
template <typename Spec>
std::string Problem(const Field<Spec>& field, const Value& value) {
  if (IsText(field) != std::holds_alternative<std::string>(value)) {
    return Expected(field);
  }
  if (IsText(field)) {
    if (field.choices == nullptr) return "";
    const std::vector<std::string> choices = field.choices();
    const std::string& text = std::get<std::string>(value);
    if (std::find(choices.begin(), choices.end(), text) != choices.end()) {
      return "";
    }
    return "\"" + text + "\" is not one of " + Join(choices);
  }
  const double v = std::get<double>(value);
  const bool integer = !std::holds_alternative<double Spec::*>(field.member);
  const Range& r = field.range;
  // Written so that NaN fails every comparison.
  const bool legal = std::isfinite(v) && (!integer || v == std::trunc(v)) &&
                     (r.lo_open ? v > r.lo : v >= r.lo) &&
                     (r.hi_open ? v < r.hi : v <= r.hi);
  if (legal) return "";
  return std::string("must be ") +
         (integer ? "an integer" : "a finite number") + " in " +
         (r.lo_open || std::isinf(r.lo) ? "(" : "[") + FormatNumber(r.lo) +
         ", " + FormatNumber(r.hi) +
         (r.hi_open || std::isinf(r.hi) ? ")" : "]") + ", got " +
         FormatNumber(v);
}

template <typename Spec>
Value Load(const Field<Spec>& field, const Spec& spec) {
  return std::visit(
      [&](auto member) -> Value {
        using T = std::remove_cvref_t<decltype(spec.*member)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return spec.*member;
        } else {
          return static_cast<double>(spec.*member);
        }
      },
      field.member);
}

// Checks `value` before storing it: converting an out-of-range double
// to an integer member is undefined behaviour.
template <typename Spec>
status::Status Assign(const Field<Spec>& field, const Value& value,
                      const std::string& label, Spec* spec) {
  const std::string problem = Problem(field, value);
  if (!problem.empty()) return status::InvalidInput(label + ": " + problem);
  std::visit(
      [&](auto member) {
        using T = std::remove_cvref_t<decltype(spec->*member)>;
        if constexpr (std::is_same_v<T, std::string>) {
          spec->*member = std::get<std::string>(value);
        } else {
          spec->*member = static_cast<T>(std::get<double>(value));
        }
      },
      field.member);
  return status::Status::Ok();
}

}  // namespace

template <typename Spec>
status::Status Validate(const Spec& spec) {
  for (const Field<Spec>& field : Fields<Spec>()) {
    const std::string problem = Problem(field, Load(field, spec));
    if (!problem.empty()) {
      return status::InvalidInput(JsonLabel(field) + ": " + problem);
    }
  }
  return status::Status::Ok();
}

template <typename Spec>
status::Status ReadJson(const obs::Json& object, Spec* spec) {
  const std::vector<Field<Spec>>& fields = Fields<Spec>();
  for (const auto& [key, json] : object.object) {
    const auto field =
        std::find_if(fields.begin(), fields.end(),
                     [&](const Field<Spec>& f) { return key == f.name; });
    if (field == fields.end()) {
      return status::InvalidInput("unknown field \"" + key + "\"");
    }
    std::optional<Value> value;
    if (json.type == obs::Json::Type::kString) value = json.string_value;
    if (json.type == obs::Json::Type::kNumber) value = json.number_value;
    if (!value.has_value()) {
      return status::InvalidInput(JsonLabel(*field) + ": " +
                                  Expected(*field));
    }
    const status::Status assigned =
        Assign(*field, *value, JsonLabel(*field), spec);
    if (!assigned.ok()) return assigned;
  }
  return status::Status::Ok();
}

template <typename Spec>
status::Status ReadFlags(const Args& args,
                         const std::vector<std::string>& extra, Spec* spec) {
  std::vector<std::string> declared = extra;
  for (const Field<Spec>& field : Fields<Spec>()) {
    declared.push_back(FlagName(field));
  }
  const status::Status known = args.CheckFlags(declared);
  if (!known.ok()) return known;
  for (const Field<Spec>& field : Fields<Spec>()) {
    const std::string flag = FlagName(field);
    if (!args.Has(flag)) continue;
    Value value = args.GetString(flag);
    if (!IsText(field)) {
      const status::StatusOr<double> number = args.GetDouble(flag, 0.0);
      if (!number.ok()) return number.status();
      value = *number;
    }
    const status::Status assigned =
        Assign(field, value, "flag --" + flag, spec);
    if (!assigned.ok()) return assigned;
  }
  return status::Status::Ok();
}

template <typename Spec>
std::vector<std::string> FlagUsage() {
  const Spec defaults;
  std::vector<std::string> tokens;
  for (const Field<Spec>& field : Fields<Spec>()) {
    std::string shown;
    if (field.choices != nullptr) {
      shown = Join(field.choices());
    } else if (IsText(field)) {
      shown = "TEXT";
    } else {
      shown = FormatNumber(std::get<double>(Load(field, defaults)));
    }
    tokens.push_back("[--" + FlagName(field) + " " + shown + "]");
  }
  return tokens;
}

template status::Status Validate(const AttackerSpec&);
template status::Status Validate(const EvalSpec&);
template status::Status ReadJson(const obs::Json&, AttackerSpec*);
template status::Status ReadJson(const obs::Json&, EvalSpec*);
template status::Status ReadFlags(const Args&,
                                  const std::vector<std::string>&,
                                  AttackerSpec*);
template status::Status ReadFlags(const Args&,
                                  const std::vector<std::string>&,
                                  EvalSpec*);
template std::vector<std::string> FlagUsage<AttackerSpec>();
template std::vector<std::string> FlagUsage<EvalSpec>();

AttackRun RunAttackOp(const graph::Graph& g, const AttackerSpec& spec,
                      const status::Deadline& deadline) {
  AttackRun run;
  run.result.status = Validate(spec);
  if (!run.result.status.ok()) return run;
  // Validate vouched for the name, so the factory cannot return null.
  const std::unique_ptr<attack::Attacker> attacker = MakeAttackerByName(spec);
  attack::AttackOptions options;
  options.perturbation_rate = spec.rate;
  options.feature_cost = spec.feature_cost;
  options.deadline = deadline;
  run.attacker = attacker->name();
  run.result = RunAttack(attacker.get(), g, options, spec.seed);
  return run;
}

EvalRun RunEvalOp(const graph::Graph& g, const EvalSpec& spec,
                  const status::Deadline& deadline) {
  EvalRun run;
  run.evaluation.status = Validate(spec);
  if (!run.evaluation.status.ok()) return run;
  const std::unique_ptr<defense::Defender> defender =
      MakeDefenderByName(spec.defender);
  PipelineOptions options;
  options.runs = spec.runs;
  options.seed = spec.seed;
  options.train.deadline = deadline;
  run.defender = defender->name();
  run.evaluation = EvaluateDefense(defender.get(), g, options);
  return run;
}

}  // namespace repro::eval
