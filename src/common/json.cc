#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace hdmap {

namespace {

constexpr int kMaxDepth = 48;

// Local analogue of HDMAP_RETURN_IF_ERROR for use inside Result-returning
// helpers (the common macro returns Status, not Result).
#define HDMAP_RETURN_IF_ERROR_RESULT(expr)        \
  do {                                            \
    Status status_ = (expr);                      \
    if (!status_.ok()) return status_;            \
  } while (0)

/// Recursive-descent parser over a string_view cursor. Errors carry the
/// byte offset so a malformed scrape payload is diagnosable.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    HDMAP_RETURN_IF_ERROR_RESULT(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
      case 'f':
        return ParseKeyword(c == 't' ? "true" : "false", out);
      case 'n':
        return ParseKeyword("null", out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseKeyword(std::string_view word, JsonValue* out) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    if (word == "null") {
      out->kind = JsonValue::Kind::kNull;
    } else {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = (word == "true");
    }
    return Status::Ok();
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("invalid number");
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          // The kStats emitters escape control bytes as \u00XX; decode
          // the BMP code point as a raw byte when it fits, else replace.
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("invalid \\u escape");
            }
          }
          out->push_back(code < 256 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue element;
      HDMAP_RETURN_IF_ERROR_RESULT(ParseValue(&element, depth + 1));
      out->array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      HDMAP_RETURN_IF_ERROR_RESULT(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      HDMAP_RETURN_IF_ERROR_RESULT(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

#undef HDMAP_RETURN_IF_ERROR_RESULT

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 const std::string& fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || value->kind != Kind::kString) return fallback;
  return value->string_value;
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || value->kind != Kind::kNumber) return fallback;
  return value->number_value;
}

uint64_t JsonValue::GetU64(std::string_view key, uint64_t fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || value->kind != Kind::kNumber ||
      value->number_value < 0) {
    return fallback;
  }
  return static_cast<uint64_t>(value->number_value);
}

int64_t JsonValue::GetI64(std::string_view key, int64_t fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || value->kind != Kind::kNumber) return fallback;
  return static_cast<int64_t>(value->number_value);
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

void JsonWriter::Separate() {
  if (need_comma_) out_->push_back(',');
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_->push_back('{');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_->push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_->push_back('[');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_->push_back(']');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  Separate();
  out_->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        *out_ += "\\\"";
        break;
      case '\\':
        *out_ += "\\\\";
        break;
      case '\n':
        *out_ += "\\n";
        break;
      case '\t':
        *out_ += "\\t";
        break;
      case '\r':
        *out_ += "\\r";
        break;
      default: {
        auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          *out_ += "\\u00";
          out_->push_back(kHex[byte >> 4]);
          out_->push_back(kHex[byte & 0xf]);
        } else {
          out_->push_back(c);
        }
      }
    }
  }
  out_->push_back('"');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Separate();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  Separate();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  if (!std::isfinite(value)) return Null();
  Separate();
  char buf[32];
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  *out_ += value ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Separate();
  *out_ += "null";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      return Null();
    case JsonValue::Kind::kBool:
      return Bool(value.bool_value);
    case JsonValue::Kind::kNumber:
      return Double(value.number_value);
    case JsonValue::Kind::kString:
      return String(value.string_value);
    case JsonValue::Kind::kArray:
      BeginArray();
      for (const JsonValue& element : value.array) Value(element);
      return EndArray();
    case JsonValue::Kind::kObject:
      BeginObject();
      for (const auto& [key, member] : value.object) Key(key).Value(member);
      return EndObject();
  }
  return *this;
}

}  // namespace hdmap
