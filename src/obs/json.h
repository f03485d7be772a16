#ifndef BDISK_OBS_JSON_H_
#define BDISK_OBS_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bdisk::obs {

/// Escapes a string for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters). Returns the escaped body only, without
/// surrounding quotes.
std::string JsonEscape(const std::string& text);

/// Minimal streaming JSON writer for metrics snapshots and trace export.
///
/// Append-only: the caller opens objects/arrays, emits keys and values, and
/// closes scopes in order. The writer tracks comma placement; it does not
/// validate nesting beyond a depth stack, so misuse produces malformed JSON
/// rather than a crash. Doubles are emitted in shortest round-trippable
/// form (std::to_chars: parses back to the identical bits); non-finite
/// doubles become null (JSON has no Infinity/NaN).
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits `"key":` inside an object; the next Begin*/Value call attaches
  /// its value. The const char* overload appends in place — no temporary
  /// std::string for the literal metric names the hot emitters pass.
  void Key(const std::string& key);
  void Key(const char* key);

  /// Pre-sizes the output buffer (the telemetry bus knows its frames run
  /// ~1 KiB; one allocation instead of a doubling chain).
  void Reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// Resets to an empty document, keeping the output buffer's capacity —
  /// what lets a per-window emitter reuse one writer with zero
  /// steady-state allocations.
  void Clear() {
    out_.clear();
    has_element_.clear();
    pending_key_ = false;
  }

  void Value(double v);
  void Value(std::uint64_t v);
  void Value(std::int64_t v);
  void Value(bool v);
  void Value(const std::string& v);
  void Value(const char* v);

  /// The document built so far.
  const std::string& str() const { return out_; }

 private:
  // Writes the separating comma if this scope already holds a value.
  void Separate();

  std::string out_;
  // true once the current scope (object/array) has at least one element.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

/// A parsed JSON value (minimal DOM, mirror of what JsonWriter emits).
/// Objects preserve insertion order; numbers are doubles (the writer never
/// emits anything a double cannot hold exactly up to 2^53, and metric
/// comparisons are numeric anyway).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull = 0,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses a complete JSON document. On failure returns false and, when
/// `error` is non-null, a one-line message with the byte offset. Accepts
/// exactly what JsonWriter produces (standard JSON; no comments, no
/// trailing commas).
bool ParseJson(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

}  // namespace bdisk::obs

#endif  // BDISK_OBS_JSON_H_
