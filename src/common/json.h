#ifndef HDMAP_COMMON_JSON_H_
#define HDMAP_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace hdmap {

/// Minimal owned JSON document, just enough to consume the kStats node
/// document (node header, replication status, events, metrics) without an
/// external dependency. Objects preserve insertion order and are scanned
/// linearly on lookup — the documents are tens of keys, not thousands.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Member lookup; null when this is not an object or the key is absent.
  const JsonValue* Find(std::string_view key) const;

  /// Typed member accessors with fallbacks (missing key, wrong kind, or
  /// non-object receiver all yield the fallback — scraping must not
  /// crash on a node running an older payload shape).
  std::string GetString(std::string_view key,
                        const std::string& fallback = std::string()) const;
  double GetNumber(std::string_view key, double fallback = 0.0) const;
  uint64_t GetU64(std::string_view key, uint64_t fallback = 0) const;
  int64_t GetI64(std::string_view key, int64_t fallback = 0) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing junk is
/// an error). Depth-limited to keep hostile input from recursing the
/// stack away.
Result<JsonValue> ParseJson(std::string_view text);

/// Streaming writer appending one compact JSON document (no whitespace)
/// to a caller-owned string. Every JSON document the system exports goes
/// through it, so it is the one place strings are escaped and numbers
/// formatted. The writer places commas and colons; the caller supplies
/// the structure and is trusted to nest it correctly:
///
///   JsonWriter w(&out);
///   w.BeginObject().Key("seq").Uint(3).Key("detail").String(s).EndObject();
///
/// Strings are written byte for byte except `"`, `\` and control bytes,
/// which are escaped; multi-byte UTF-8 passes through unchanged.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Object member name; the next call writes its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  /// Shortest form that parses back to the same double; NaN and the
  /// infinities, which JSON cannot represent, are written as null.
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  /// Re-emits a parsed document (numbers go through Double).
  JsonWriter& Value(const JsonValue& value);

 private:
  /// Writes the ',' owed to a preceding sibling, if any.
  void Separate();

  std::string* out_;
  /// True after a complete value or member: the next one needs a comma.
  bool need_comma_ = false;
};

}  // namespace hdmap

#endif  // HDMAP_COMMON_JSON_H_
