#ifndef PEEGA_EVAL_ARGS_H_
#define PEEGA_EVAL_ARGS_H_

#include <map>
#include <string>
#include <vector>

#include "status/status.h"

namespace repro::eval {

/// Minimal command-line parser for the tools:
/// `prog <command> --key value --flag ...`.
/// `--key=value` is also accepted, and a flag with no value reads as
/// "true". Bare tokens after the command become positional arguments.
/// Parse keeps every flag; CheckFlags rejects the ones a command does
/// not declare, and the numeric getters reject values that do not
/// parse in full.
class Args {
 public:
  /// Parses argv (argv[0] skipped). The first bare token is the command.
  static Args Parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  /// `fallback` when `--key` is absent; INVALID_INPUT naming the flag
  /// when its whole value is not a finite number.
  status::StatusOr<double> GetDouble(const std::string& key,
                                     double fallback) const;
  /// As GetDouble, and the value must be an integer in int's range.
  status::StatusOr<int> GetInt(const std::string& key, int fallback) const;

  /// INVALID_INPUT naming the first flag not in `declared`, or the first
  /// positional argument (no command takes any).
  status::Status CheckFlags(const std::vector<std::string>& declared) const;

 private:
  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> values_;
};

}  // namespace repro::eval

#endif  // PEEGA_EVAL_ARGS_H_
