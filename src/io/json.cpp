#include "io/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace rtsm::io {

namespace {

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw Error(std::string("JSON value is ") +
              kNames[static_cast<int>(got)] + ", expected " + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::Number) kind_error("number", kind_);
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  if (kind_ != Kind::Number) kind_error("number", kind_);
  // Re-parse the raw text: 64-bit counters round-trip exactly even where
  // a double would lose precision.
  return std::strtoull(text_.c_str(), nullptr, 10);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) kind_error("string", kind_);
  return text_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  return array_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  const auto it = object_.find(key);
  require(it != object_.end(),
          [&] { return "JSON object has no key \"" + key + "\""; });
  return it->second;
}

bool JsonValue::has(const std::string& key) const {
  return kind_ == Kind::Object && object_.count(key) > 0;
}

const JsonValue& JsonValue::get(const std::string& key,
                                const JsonValue& fallback) const {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  const auto it = object_.find(key);
  return it == object_.end() ? fallback : it->second;
}

/// Recursive-descent parser over the byte string; @p pos tracks the
/// current offset for error messages.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    require(pos_ == text_.size(), [&] {
      return "trailing garbage after JSON document at byte " +
             std::to_string(pos_);
    });
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::string(literal).size();
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
      case 'f': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Bool;
        if (consume_literal("true")) {
          v.bool_ = true;
        } else if (consume_literal("false")) {
          v.bool_ = false;
        } else {
          fail("malformed literal");
        }
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("malformed literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = parse_string();
      expect(':');
      v.object_.emplace(key.text_, parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind_ = JsonValue::Kind::String;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.text_ += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.text_ += '"'; break;
        case '\\': v.text_ += '\\'; break;
        case '/': v.text_ += '/'; break;
        case 'b': v.text_ += '\b'; break;
        case 'f': v.text_ += '\f'; break;
        case 'n': v.text_ += '\n'; break;
        case 'r': v.text_ += '\r'; break;
        case 't': v.text_ += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // The library's writers only \u-escape control characters; emit
          // UTF-8 for anything else so foreign documents stay readable.
          if (code < 0x80) {
            v.text_ += static_cast<char>(code);
          } else if (code < 0x800) {
            v.text_ += static_cast<char>(0xc0 | (code >> 6));
            v.text_ += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            v.text_ += static_cast<char>(0xe0 | (code >> 12));
            v.text_ += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            v.text_ += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!digits) fail("malformed number");
    JsonValue v;
    v.kind_ = JsonValue::Kind::Number;
    v.text_ = text_.substr(start, pos_ - start);
    v.number_ = std::strtod(v.text_.c_str(), nullptr);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace rtsm::io
