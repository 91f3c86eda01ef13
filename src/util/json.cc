#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

namespace longdp {
namespace util {

std::string FormatDoubleRoundTrip(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return buf;  // %.17g always round-trips for IEEE-754 doubles
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_items()) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonNumberValue(const JsonValue& v, double* out) {
  if (v.is_number()) {
    *out = v.number_value();
    return true;
  }
  if (v.is_string()) {
    const std::string& s = v.string_value();
    if (s == "NaN") {
      *out = std::nan("");
      return true;
    }
    if (s == "Infinity") {
      *out = HUGE_VAL;
      return true;
    }
    if (s == "-Infinity") {
      *out = -HUGE_VAL;
      return true;
    }
  }
  return false;
}

// --- Parser ----------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 128;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    LONGDP_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        LONGDP_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
      case 'f':
      case 'n':
        return ParseLiteral();
      default:
        return ParseNumber();
    }
  }

  /// true, false or null. Each result is a copy of a constant: a
  /// temporary JsonValue moved into the Result makes GCC 12 under
  /// -fsanitize=address report the variant's string and array
  /// alternatives as maybe-uninitialized.
  Result<JsonValue> ParseLiteral() {
    static const JsonValue kTrue(true), kFalse(false), kNull;
    const std::pair<const char*, const JsonValue*> literals[] = {
        {"true", &kTrue}, {"false", &kFalse}, {"null", &kNull}};
    for (const auto& [word, value] : literals) {
      const size_t len = std::char_traits<char>::length(word);
      if (text_.compare(pos_, len, word) == 0) {
        pos_ += len;
        return *value;
      }
    }
    return Error("invalid literal");
  }

  Result<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue::Object members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      LONGDP_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      LONGDP_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue(std::move(members));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue::Array items;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(items));
    while (true) {
      LONGDP_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      items.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue(std::move(items));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          LONGDP_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          // Combine a surrogate pair when present.
          if (cp >= 0xD800 && cp <= 0xDBFF &&
              text_.compare(pos_, 2, "\\u") == 0) {
            size_t saved = pos_;
            pos_ += 2;
            LONGDP_ASSIGN_OR_RETURN(uint32_t lo, ParseHex4());
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              pos_ = saved;  // lone high surrogate; encode it as-is
            }
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return cp;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token == "-") {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    return JsonValue(v);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

// --- Writer ----------------------------------------------------------------

void JsonWriter::Indent() {
  *out_ << '\n' << std::string(2 * stack_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted the separator and indentation
  }
  if (stack_.empty()) return;
  Frame& top = stack_.back();
  if (!top.first) *out_ << ',';
  top.first = false;
  Indent();
}

void JsonWriter::BeginObject() {
  BeforeValue();
  *out_ << '{';
  stack_.push_back(Frame{/*is_object=*/true, /*first=*/true});
}

void JsonWriter::EndObject() {
  bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) Indent();
  *out_ << '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  *out_ << '[';
  stack_.push_back(Frame{/*is_object=*/false, /*first=*/true});
}

void JsonWriter::EndArray() {
  bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) Indent();
  *out_ << ']';
}

void JsonWriter::Key(const std::string& key) {
  Frame& top = stack_.back();
  if (!top.first) *out_ << ',';
  top.first = false;
  Indent();
  *out_ << '"' << JsonEscape(key) << "\": ";
  pending_key_ = true;
}

void JsonWriter::Value(const std::string& v) {
  BeforeValue();
  *out_ << '"' << JsonEscape(v) << '"';
}

void JsonWriter::Value(double v) {
  if (std::isnan(v)) {
    Value(std::string("NaN"));
    return;
  }
  if (std::isinf(v)) {
    Value(std::string(v > 0 ? "Infinity" : "-Infinity"));
    return;
  }
  BeforeValue();
  *out_ << FormatDoubleRoundTrip(v);
}

void JsonWriter::Value(int64_t v) {
  BeforeValue();
  *out_ << v;
}

void JsonWriter::Value(uint64_t v) {
  BeforeValue();
  *out_ << v;
}

void JsonWriter::Value(bool v) {
  BeforeValue();
  *out_ << (v ? "true" : "false");
}

void JsonWriter::Null() {
  BeforeValue();
  *out_ << "null";
}

}  // namespace util
}  // namespace longdp
