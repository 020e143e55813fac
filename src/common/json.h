// Minimal JSON support: a streaming writer for bench/report output and a
// small recursive-descent reader for declarative inputs (fault plans).
//
// The Writer builds a pretty-printed (2-space indent) UTF-8 document in
// memory with deterministic number formatting, so emitted files are stable
// across runs and diffable in golden tests. The reader (json::Parse into a
// json::Value DOM) exists for the handful of places that consume JSON — it
// favors clear errors over speed and supports exactly the JSON subset the
// writer emits (objects, arrays, strings with \-escapes, numbers, bools,
// null).

#ifndef DRACONIS_COMMON_JSON_H_
#define DRACONIS_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace draconis::json {

class Writer {
 public:
  // Containers. The first call must open the root object or array.
  Writer& BeginObject();
  Writer& EndObject();
  Writer& BeginArray();
  Writer& EndArray();

  // Object member key; must be followed by exactly one value or container.
  Writer& Key(const std::string& name);

  // Values.
  Writer& String(const std::string& value);
  Writer& Int(int64_t value);
  Writer& UInt(uint64_t value);
  Writer& Double(double value);
  Writer& Bool(bool value);
  Writer& Null();

  // The finished document; valid once every container is closed.
  const std::string& str() const { return out_; }
  bool done() const { return !out_.empty() && stack_.empty(); }

  // Shortest decimal representation that round-trips to `value`.
  static std::string FormatDouble(double value);

 private:
  enum class Frame : uint8_t { kObject, kArray };

  void BeforeValue();  // comma / newline / indent bookkeeping
  void Indent();
  void AppendEscaped(const std::string& s);

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<uint64_t> counts_;  // values emitted per open container
  bool key_pending_ = false;
};

// Parsed JSON value. A small tagged DOM: good enough for config-sized
// documents (fault plans), not a serialization layer — reports still go
// through the Writer.
class Value {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; the caller checks the type first (they CHECK-fail on a
  // mismatch rather than coerce).
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;  // CHECK-fails unless the number is an int64
  const std::string& AsString() const;
  const std::vector<Value>& AsArray() const;

  // Object member lookup; nullptr when absent (or when not an object).
  const Value* Find(const std::string& key) const;
  // Member names in document order (for unknown-key diagnostics).
  std::vector<std::string> Keys() const;

  // Factories used by the parser (and tests).
  static Value Null();
  static Value MakeBool(bool b);
  static Value Number(double d);
  static Value Str(std::string s);
  static Value Array(std::vector<Value> items);
  static Value Object(std::vector<std::pair<std::string, Value>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> members_;  // document order
};

// The checked integer read the config parsers share: `v` must be an integral
// number in [lo, hi]. Otherwise returns false and sets *error (when non-null)
// to "<what> must be an integer[ in [lo, hi]]"; *out is left untouched.
bool ReadInt(const Value& v, const std::string& what, int64_t lo, int64_t hi, int64_t* out,
             std::string* error);

// ReadInt into a narrower field; [lo, hi] must fit in T.
template <typename T>
bool ReadInt(const Value& v, const std::string& what, int64_t lo, int64_t hi, T* out,
             std::string* error) {
  int64_t value = 0;
  if (!ReadInt(v, what, lo, hi, &value, error)) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// Parses a complete JSON document. Returns false (and a "line N: ..." error
// when `error` is non-null) on malformed input or trailing garbage.
bool Parse(const std::string& text, Value* out, std::string* error);

}  // namespace draconis::json

#endif  // DRACONIS_COMMON_JSON_H_
