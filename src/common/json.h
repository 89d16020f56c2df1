// Minimal JSON value + parser/serializer for the service wire protocol
// (line-delimited JSON requests/responses) and bench provenance blocks.
// No external dependencies; strict enough for machine-to-machine use:
// rejects trailing garbage, unterminated strings, bad escapes, and
// pathological nesting. Numbers keep int64 fidelity when the literal is
// integral (session ids, row counts, seeds) and fall back to double.
#ifndef FALCON_COMMON_JSON_H_
#define FALCON_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace falcon {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;  // null
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}             // NOLINT
  JsonValue(int64_t i) : type_(Type::kInt), int_(i) {}            // NOLINT
  JsonValue(int i) : type_(Type::kInt), int_(i) {}                // NOLINT
  JsonValue(size_t u) : type_(Type::kInt),                        // NOLINT
                        int_(static_cast<int64_t>(u)) {}
  JsonValue(double d) : type_(Type::kDouble), double_(d) {}       // NOLINT
  JsonValue(std::string s) : type_(Type::kString),                // NOLINT
                             string_(std::move(s)) {}
  JsonValue(std::string_view s) : type_(Type::kString),           // NOLINT
                                  string_(s) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT

  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_bool() const { return type_ == Type::kBool; }

  // Raw accessors (caller checks the type; mismatches return defaults).
  bool AsBool(bool def = false) const {
    return type_ == Type::kBool ? bool_ : def;
  }
  int64_t AsInt(int64_t def = 0) const {
    if (type_ == Type::kInt) return int_;
    // A NaN or out-of-range double has no int64 value (casting it is UB).
    if (type_ == Type::kDouble && double_ >= -0x1p63 && double_ < 0x1p63) {
      return static_cast<int64_t>(double_);
    }
    return def;
  }
  double AsDouble(double def = 0.0) const {
    if (type_ == Type::kDouble) return double_;
    if (type_ == Type::kInt) return static_cast<double>(int_);
    return def;
  }
  const std::string& AsString() const { return string_; }

  // Object API. Set() appends or overwrites; insertion order is preserved
  // so serialized output is stable.
  JsonValue& Set(std::string_view key, JsonValue value);
  const JsonValue* Find(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }

  // Keyed getters with defaults (absent key or type mismatch → default).
  std::string GetString(std::string_view key,
                        const std::string& def = "") const;
  int64_t GetInt(std::string_view key, int64_t def = 0) const;
  double GetDouble(std::string_view key, double def = 0.0) const;
  bool GetBool(std::string_view key, bool def = false) const;

  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Array API.
  JsonValue& Append(JsonValue value);
  const std::vector<JsonValue>& items() const { return items_; }
  size_t size() const {
    return type_ == Type::kArray ? items_.size() : members_.size();
  }

  /// Compact single-line serialization (never emits raw newlines, so one
  /// serialized value is always one wire-protocol line).
  std::string Serialize() const;

  /// Strict parse of exactly one JSON value (trailing whitespace allowed,
  /// anything else is InvalidArgument). Depth-capped at 64.
  static StatusOr<JsonValue> Parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes `s` as a JSON string literal including the quotes.
std::string JsonEscape(std::string_view s);

}  // namespace falcon

#endif  // FALCON_COMMON_JSON_H_
