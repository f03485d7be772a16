#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace bdisk::obs {

namespace {

// Most keys and values (metric names, schema tags) contain nothing that
// needs escaping; detecting that up front lets the writer append them
// without the per-string allocation JsonEscape pays.
bool NeedsEscape(const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

bool NeedsEscape(const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\' || static_cast<unsigned char>(*p) < 0x20) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
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

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // The key already wrote its comma.
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  has_element_.push_back(false);
}

void JsonWriter::EndObject() {
  if (!has_element_.empty()) has_element_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  has_element_.push_back(false);
}

void JsonWriter::EndArray() {
  if (!has_element_.empty()) has_element_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(const std::string& key) {
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
  out_ += '"';
  if (NeedsEscape(key)) {
    out_ += JsonEscape(key);
  } else {
    out_ += key;
  }
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::Key(const char* key) {
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
  out_ += '"';
  if (NeedsEscape(key)) {
    out_ += JsonEscape(key);
  } else {
    out_ += key;
  }
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  // Shortest round-trippable decimal form (parses back to the same bits,
  // like %.17g, but without the trailing noise digits and ~10x faster —
  // the telemetry bus serializes a dozen doubles per window frame).
  char buf[32];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, result.ptr);
}

void JsonWriter::Value(std::uint64_t v) {
  Separate();
  char buf[24];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, result.ptr);
}

void JsonWriter::Value(std::int64_t v) {
  Separate();
  char buf[24];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, result.ptr);
}

void JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
}

void JsonWriter::Value(const std::string& v) {
  Separate();
  out_ += '"';
  if (NeedsEscape(v)) {
    out_ += JsonEscape(v);
  } else {
    out_ += v;
  }
  out_ += '"';
}

void JsonWriter::Value(const char* v) {
  Separate();
  out_ += '"';
  if (NeedsEscape(v)) {
    out_ += JsonEscape(v);
  } else {
    out_ += v;
  }
  out_ += '"';
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a byte range.
class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing data after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const std::string& what) {
    if (error_ != nullptr) {
      *error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          *out += esc;
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
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
          // The writer only escapes control characters, so a plain
          // single-byte decode covers everything it emits; other code
          // points pass through as UTF-8 already.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else {
            return Fail("unsupported \\u escape above 0x7f");
          }
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("expected number");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': {
        ++pos_;
        out->kind = JsonValue::Kind::kObject;
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          SkipWs();
          std::string key;
          if (!ParseString(&key)) return false;
          SkipWs();
          if (pos_ >= text_.size() || text_[pos_] != ':') {
            return Fail("expected ':' in object");
          }
          ++pos_;
          JsonValue value;
          if (!ParseValue(&value, depth + 1)) return false;
          out->object.emplace_back(std::move(key), std::move(value));
          SkipWs();
          if (pos_ >= text_.size()) return Fail("unterminated object");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == '}') {
            ++pos_;
            return true;
          }
          return Fail("expected ',' or '}' in object");
        }
      }
      case '[': {
        ++pos_;
        out->kind = JsonValue::Kind::kArray;
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          JsonValue value;
          if (!ParseValue(&value, depth + 1)) return false;
          out->array.push_back(std::move(value));
          SkipWs();
          if (pos_ >= text_.size()) return Fail("unterminated array");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == ']') {
            ++pos_;
            return true;
          }
          return Fail("expected ',' or ']' in array");
        }
      }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false", 5);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null", 4);
      default:
        return ParseNumber(out);
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  JsonParser parser(text, error);
  return parser.Parse(out);
}

}  // namespace bdisk::obs
