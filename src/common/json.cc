#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace falcon {

JsonValue& JsonValue::Set(std::string_view key, JsonValue value) {
  type_ = Type::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 const std::string& def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_ : def;
}

int64_t JsonValue::GetInt(std::string_view key, int64_t def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsInt(def) : def;
}

double JsonValue::GetDouble(std::string_view key, double def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : def;
}

bool JsonValue::GetBool(std::string_view key, bool def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->bool_ : def;
}

JsonValue& JsonValue::Append(JsonValue value) {
  type_ = Type::kArray;
  items_.push_back(std::move(value));
  return *this;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void SerializeTo(const JsonValue& v, std::string& out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += v.AsBool() ? "true" : "false";
      break;
    case JsonValue::Type::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(v.AsInt()));
      out += buf;
      break;
    }
    case JsonValue::Type::kDouble: {
      double d = v.AsDouble();
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no Inf/NaN; null is the least-bad lie.
        break;
      }
      if (d == 0.0 && std::signbit(d)) {
        out += "-0.0";  // "-0" would read back as the integer 0.
        break;
      }
      // Shortest representation that round-trips: 17 digits always do, but
      // "0.05" must not become "0.050000000000000003".
      char buf[40];
      for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d) break;
      }
      out += buf;
      break;
    }
    case JsonValue::Type::kString:
      out += JsonEscape(v.AsString());
      break;
    case JsonValue::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        SerializeTo(item, out);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, member] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        out += JsonEscape(k);
        out.push_back(':');
        SerializeTo(member, out);
      }
      out.push_back('}');
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Run() {
    SkipWs();
    JsonValue v;
    FALCON_RETURN_IF_ERROR(ParseValue(0, &v));
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON value");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  Status ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(depth, out);
      case '[': return ParseArray(depth, out);
      case '"': {
        std::string s;
        FALCON_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          *out = JsonValue(true);
          return Status::Ok();
        }
        return Err("bad literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          *out = JsonValue(false);
          return Status::Ok();
        }
        return Err("bad literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = JsonValue();
          return Status::Ok();
        }
        return Err("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(int depth, JsonValue* out) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      std::string key;
      FALCON_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Err("expected ':' after object key");
      SkipWs();
      JsonValue member;
      FALCON_RETURN_IF_ERROR(ParseValue(depth + 1, &member));
      out->Set(key, std::move(member));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Err("expected ',' or '}' in object");
    }
  }

  Status ParseArray(int depth, JsonValue* out) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      SkipWs();
      JsonValue item;
      FALCON_RETURN_IF_ERROR(ParseValue(depth + 1, &item));
      out->Append(std::move(item));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Err("expected ',' or ']' in array");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<uint32_t>(c - 'A' + 10);
      else return Err("bad hex digit in \\u escape");
    }
    pos_ += 4;
    *out = v;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Err("truncated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          FALCON_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with a following \uDC00–DFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Err("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t lo = 0;
            FALCON_RETURN_IF_ERROR(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Err("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Err("unpaired low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Err("bad escape character");
      }
    }
    return Err("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Err("bad number");
    }
    // JSON forbids leading zeros: "01" is two tokens, not a number.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Err("leading zero in number");
    }
    bool integral = true;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Err("bad fraction");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Err("bad exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    std::string literal(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(literal.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        *out = JsonValue(static_cast<int64_t>(v));
        return Status::Ok();
      }
      // Out of int64 range: fall through to double.
    }
    char* end = nullptr;
    double d = std::strtod(literal.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("bad number");
    *out = JsonValue(d);
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(*this, out);
  return out;
}

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace falcon
