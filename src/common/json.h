// Minimal JSON support: a streaming writer for bench/report output, a small
// recursive-descent reader for declarative inputs (fault plans, workload and
// DAG specs), and the strict member reader those inputs' parsers share.
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

#include "common/names.h"

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

// Stores `message` in *error (when non-null) and returns false: the one-line
// failure every declarative-input parser returns through.
bool Fail(std::string* error, std::string message);

// Reads the members of one JSON object for a declarative-input parser, and
// is strict about it: a member of the wrong type or out of range is an
// error that names the member, never a silent default, and Finish() rejects
// any member no read asked for. The first failure wins; every later read is
// a no-op returning false, so a parser may issue its reads and check once.
class ObjectReader {
 public:
  // `what` names the object in errors; a member is named what + separator +
  // key ("workload: seed", "event 0.start").
  ObjectReader(const Value& object, std::string what, std::string* error,
               std::string separator = ": ");

  std::string Member(const std::string& key) const { return what_ + separator_ + key; }
  // Renames the object for later errors (once a kind member says what it is).
  void set_what(std::string what) { what_ = std::move(what); }

  // The member, marked read; nullptr when absent or after a failure.
  const Value* Find(const std::string& key);
  // Fails with "<member> is missing" when the member is absent.
  bool Require(const std::string& key);
  // Optional members: an absent one keeps *out.
  bool Number(const std::string& key, double* out);
  template <typename T>
  bool Int(const std::string& key, int64_t lo, int64_t hi, T* out) {
    const Value* v = Find(key);
    return ok_ && (v == nullptr || ReadInt(*v, Member(key), lo, hi, out, error_) || Fail(""));
  }
  // A required enum-valued member, read through the enum's name table.
  template <typename E>
  bool Enum(const std::string& key, E* out) {
    const Value* v = Find(key);
    if (!ok_) {
      return false;
    }
    if (v != nullptr && v->is_string() && names::Parse(v->AsString(), out)) {
      return true;
    }
    return Fail(Member(key) + " must be one of " + names::Choices<E>());
  }

  // Records `message` unless an earlier failure did (an empty message keeps
  // the error a helper already wrote) and returns false.
  bool Fail(std::string message);
  // True when every read succeeded and every member was read; otherwise
  // fails with "<what> has unknown key \"k\"" for the first unread member.
  bool Finish();

 private:
  const Value& object_;
  std::string what_;
  std::string separator_;
  std::string* error_;
  std::vector<std::string> read_;
  bool ok_ = true;
};

// Parses a complete JSON document. Returns false (and a "line N: ..." error
// when `error` is non-null) on malformed input or trailing garbage.
bool Parse(const std::string& text, Value* out, std::string* error);

}  // namespace draconis::json

#endif  // DRACONIS_COMMON_JSON_H_
