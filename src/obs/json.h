#ifndef PEEGA_OBS_JSON_H_
#define PEEGA_OBS_JSON_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace repro::obs {

/// Minimal JSON document model — just enough for the observability
/// exports (trace files, metric snapshots, BENCH_*.json) and for the
/// parse-back tests and CI schema checks that validate them. Numbers
/// are doubles; object keys are ordered (std::map) so emitted JSON is
/// byte-stable for a given document.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  static Json MakeNull() { return Json{}; }
  static Json MakeBool(bool b);
  static Json MakeNumber(double n);
  static Json MakeString(std::string s);
  static Json MakeArray();
  static Json MakeObject();

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;

  /// Serializes compactly (no insignificant whitespace). Numbers that
  /// are integral within 2^53 print without a fractional part.
  void Write(std::ostream& out) const;
  std::string Dump() const;

  /// Strict recursive-descent parser (UTF-8 passthrough; \uXXXX escapes
  /// are decoded for the BMP). Returns false and sets `error` (with a
  /// byte offset) on malformed input, trailing garbage, or arrays and
  /// objects nested more than 64 deep.
  static bool Parse(const std::string& text, Json* out, std::string* error);
};

/// Escapes `s` as the body of a JSON string literal (no surrounding
/// quotes) — shared by Json::Write and the streaming trace exporter.
void JsonEscape(const std::string& s, std::ostream& out);

}  // namespace repro::obs

#endif  // PEEGA_OBS_JSON_H_
