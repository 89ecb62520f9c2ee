#ifndef PEEGA_TESTS_OP_REJECTIONS_H_
#define PEEGA_TESTS_OP_REJECTIONS_H_

// The rejection table every surface runs: each row is one attack/eval
// op field set to a value the CLI (cli_test), the C ABI (capi_test) and
// the job server (serve_test) must each refuse with INVALID_INPUT
// naming the field. A surface that cannot express a row's value skips
// it: JSON has no NaN, CLI flags are untyped text, and the C structs
// are typed and closed.

#include <vector>

namespace repro {

struct RejectionRow {
  const char* op;     // "attack" or "eval"
  const char* field;  // wire name the error must carry
  const char* json;   // the value as JSON text; nullptr: not expressible
  const char* text;   // the value as a CLI flag / C literal; nullptr: none
  bool abi;           // expressible through gg_attack_options / gg_eval
};

inline const std::vector<RejectionRow>& RejectionTable() {
  static const std::vector<RejectionRow> rows = {
      {"attack", "rate", nullptr, "nan", true},
      {"attack", "rate", "-0.1", "-0.1", true},
      {"attack", "rate", "1.5", "1.5", true},
      {"attack", "feature_cost", "0", "0", true},
      {"attack", "feature_cost", "-1", "-1", true},
      {"attack", "mode", "\"xyz\"", "xyz", true},
      // Through the ABI, -1 is the uint64_t it converts to, 2^64 - 1.
      {"attack", "seed", "-1", "-1", true},
      {"attack", "seed", "1.5", "1.5", false},
      {"eval", "runs", "0", "0", true},
      {"attack", "rat", "0.1", "0.1", false},  // unknown key
      // A type mismatch; on the CLI, the same number only half-parsed.
      {"attack", "p", "\"2\"", "2x", false},
  };
  return rows;
}

}  // namespace repro

#endif  // PEEGA_TESTS_OP_REJECTIONS_H_
