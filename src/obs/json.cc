#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace repro::obs {

Json Json::MakeBool(bool b) {
  Json j;
  j.type = Type::kBool;
  j.bool_value = b;
  return j;
}

Json Json::MakeNumber(double n) {
  Json j;
  j.type = Type::kNumber;
  j.number_value = n;
  return j;
}

Json Json::MakeString(std::string s) {
  Json j;
  j.type = Type::kString;
  j.string_value = std::move(s);
  return j;
}

Json Json::MakeArray() {
  Json j;
  j.type = Type::kArray;
  return j;
}

Json Json::MakeObject() {
  Json j;
  j.type = Type::kObject;
  return j;
}

const Json* Json::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

void JsonEscape(const std::string& s, std::ostream& out) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out << buffer;
        } else {
          out << c;
        }
    }
  }
}

namespace {

void WriteNumber(double n, std::ostream& out) {
  if (!std::isfinite(n)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    out << "null";
    return;
  }
  const double rounded = std::nearbyint(n);
  if (rounded == n && std::fabs(n) < 9.007199254740992e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", n);
    out << buffer;
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", n);
  out << buffer;
}

}  // namespace

void Json::Write(std::ostream& out) const {
  switch (type) {
    case Type::kNull:
      out << "null";
      break;
    case Type::kBool:
      out << (bool_value ? "true" : "false");
      break;
    case Type::kNumber:
      WriteNumber(number_value, out);
      break;
    case Type::kString:
      out << '"';
      JsonEscape(string_value, out);
      out << '"';
      break;
    case Type::kArray: {
      out << '[';
      bool first = true;
      for (const Json& element : array) {
        if (!first) out << ',';
        first = false;
        element.Write(out);
      }
      out << ']';
      break;
    }
    case Type::kObject: {
      out << '{';
      bool first = true;
      for (const auto& [key, value] : object) {
        if (!first) out << ',';
        first = false;
        out << '"';
        JsonEscape(key, out);
        out << "\":";
        value.Write(out);
      }
      out << '}';
      break;
    }
  }
}

std::string Json::Dump() const {
  std::ostringstream out;
  Write(out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

// No producer in this repo nests deeper than a few levels; the bound
// keeps hostile input (a long run of '[') from exhausting the stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(Json* out) {
    SkipWhitespace();
    if (!ParseValue(out)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Literal(const char* word, Json value, Json* out) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return Fail("invalid literal");
    pos_ += len;
    *out = std::move(value);
    return true;
  }

  bool ParseValue(Json* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n': return Literal("null", Json::MakeNull(), out);
      case 't': return Literal("true", Json::MakeBool(true), out);
      case 'f': return Literal("false", Json::MakeBool(false), out);
      case '"': return ParseString(out);
      case '[':
      case '{': {
        if (++depth_ > kMaxDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        const bool ok =
            text_[pos_] == '[' ? ParseArray(out) : ParseObject(out);
        --depth_;
        return ok;
      }
      default: return ParseNumber(out);
    }
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("invalid number");
    *out = Json::MakeNumber(value);
    return true;
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ParseString(Json* out) {
    ++pos_;  // opening quote
    std::string value;
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        value += c;
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value += '"'; break;
        case '\\': value += '\\'; break;
        case '/': value += '/'; break;
        case 'b': value += '\b'; break;
        case 'f': value += '\f'; break;
        case 'n': value += '\n'; break;
        case 'r': value += '\r'; break;
        case 't': value += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return false;
          // BMP-only UTF-8 encoding (surrogate pairs are not needed by
          // any producer in this repo).
          if (code < 0x80) {
            value += static_cast<char>(code);
          } else if (code < 0x800) {
            value += static_cast<char>(0xC0 | (code >> 6));
            value += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            value += static_cast<char>(0xE0 | (code >> 12));
            value += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            value += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Fail("invalid escape");
      }
    }
    *out = Json::MakeString(std::move(value));
    return true;
  }

  bool ParseArray(Json* out) {
    ++pos_;  // '['
    *out = Json::MakeArray();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json element;
      SkipWhitespace();
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(Json* out) {
    ++pos_;  // '{'
    *out = Json::MakeObject();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      Json key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return Fail("expected ':'");
      }
      Json value;
      SkipWhitespace();
      if (!ParseValue(&value)) return false;
      out->object[key.string_value] = std::move(value);
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return Fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Json::Parse(const std::string& text, Json* out, std::string* error) {
  return Parser(text, error).Parse(out);
}

}  // namespace repro::obs
