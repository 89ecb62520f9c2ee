#include "eval/args.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

namespace repro::eval {

Args Args::Parse(int argc, const char* const* argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      token = token.substr(2);
      const size_t eq = token.find('=');
      if (eq != std::string::npos) {
        args.values_[token.substr(0, eq)] = token.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.values_[token] = argv[++i];
      } else {
        args.values_[token] = "true";
      }
    } else if (args.command_.empty()) {
      args.command_ = token;
    } else {
      args.positional_.push_back(token);
    }
  }
  return args;
}

bool Args::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Args::GetString(const std::string& key,
                            const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

status::StatusOr<double> Args::GetDouble(const std::string& key,
                                         double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // strtod skips leading blanks and stops at the first bad character;
  // both would let a malformed value through half-read.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || !std::isfinite(value)) {
    return status::InvalidInput("flag --" + key +
                                ": expected a finite number, got \"" +
                                text + "\"");
  }
  return value;
}

status::StatusOr<int> Args::GetInt(const std::string& key,
                                   int fallback) const {
  status::StatusOr<double> value = GetDouble(key, fallback);
  if (!value.ok()) return value.status();
  if (*value != std::trunc(*value) || *value < -2147483648.0 ||
      *value > 2147483647.0) {
    return status::InvalidInput("flag --" + key +
                                ": expected an integer, got \"" +
                                GetString(key) + "\"");
  }
  return static_cast<int>(*value);
}

status::Status Args::CheckFlags(
    const std::vector<std::string>& declared) const {
  for (const auto& [key, value] : values_) {
    if (std::find(declared.begin(), declared.end(), key) == declared.end()) {
      return status::InvalidInput("unknown flag --" + key + " for '" +
                                  command_ + "'");
    }
  }
  if (!positional_.empty()) {
    return status::InvalidInput("unexpected argument \"" +
                                positional_[0] + "\"");
  }
  return status::Status::Ok();
}

}  // namespace repro::eval
