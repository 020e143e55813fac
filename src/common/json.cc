#include "common/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.h"

namespace draconis::json {

std::string Writer::FormatDouble(double value) {
  DRACONIS_CHECK_MSG(std::isfinite(value), "JSON cannot represent NaN/Inf");
  char buf[40];
  // Shortest of the standard precisions that parses back exactly.
  for (int precision : {9, 15, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

void Writer::Indent() {
  out_.append(stack_.size() * 2, ' ');
}

void Writer::BeforeValue() {
  if (key_pending_) {
    key_pending_ = false;
    return;  // "key": already emitted the separator
  }
  DRACONIS_CHECK_MSG(stack_.empty() ? out_.empty() : stack_.back() == Frame::kArray,
                     "object members need a Key(), one root value only");
  if (!stack_.empty()) {
    if (counts_.back() > 0) {
      out_ += ',';
    }
    out_ += '\n';
    Indent();
    ++counts_.back();
  }
}

Writer& Writer::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  counts_.push_back(0);
  return *this;
}

Writer& Writer::EndObject() {
  DRACONIS_CHECK(!stack_.empty() && stack_.back() == Frame::kObject && !key_pending_);
  const bool empty = counts_.back() == 0;
  stack_.pop_back();
  counts_.pop_back();
  if (!empty) {
    out_ += '\n';
    Indent();
  }
  out_ += '}';
  return *this;
}

Writer& Writer::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  counts_.push_back(0);
  return *this;
}

Writer& Writer::EndArray() {
  DRACONIS_CHECK(!stack_.empty() && stack_.back() == Frame::kArray && !key_pending_);
  const bool empty = counts_.back() == 0;
  stack_.pop_back();
  counts_.pop_back();
  if (!empty) {
    out_ += '\n';
    Indent();
  }
  out_ += ']';
  return *this;
}

Writer& Writer::Key(const std::string& name) {
  DRACONIS_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject && !key_pending_,
                     "Key() is only valid directly inside an object");
  if (counts_.back() > 0) {
    out_ += ',';
  }
  out_ += '\n';
  Indent();
  ++counts_.back();
  out_ += '"';
  AppendEscaped(name);
  out_ += "\": ";
  key_pending_ = true;
  return *this;
}

void Writer::AppendEscaped(const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

Writer& Writer::String(const std::string& value) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(value);
  out_ += '"';
  return *this;
}

Writer& Writer::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

Writer& Writer::UInt(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

Writer& Writer::Double(double value) {
  BeforeValue();
  out_ += FormatDouble(value);
  return *this;
}

Writer& Writer::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

Writer& Writer::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

bool Value::AsBool() const {
  DRACONIS_CHECK_MSG(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Value::AsDouble() const {
  DRACONIS_CHECK_MSG(is_number(), "JSON value is not a number");
  return number_;
}

namespace {

// True when `d` is integral and inside int64_t, so the cast is defined.
bool IsInt64(double d) {
  constexpr double kTwo63 = 9223372036854775808.0;
  return d >= -kTwo63 && d < kTwo63 && std::trunc(d) == d;
}

}  // namespace

int64_t Value::AsInt() const {
  DRACONIS_CHECK_MSG(is_number(), "JSON value is not a number");
  DRACONIS_CHECK_MSG(IsInt64(number_), "JSON number is not an int64 integer");
  return static_cast<int64_t>(number_);
}

bool ReadInt(const Value& v, const std::string& what, int64_t lo, int64_t hi, int64_t* out,
             std::string* error) {
  if (v.is_number() && IsInt64(v.AsDouble())) {
    const auto value = static_cast<int64_t>(v.AsDouble());
    if (value >= lo && value <= hi) {
      *out = value;
      return true;
    }
  }
  std::string message = what + " must be an integer";
  if (lo != std::numeric_limits<int64_t>::min() || hi != std::numeric_limits<int64_t>::max()) {
    message += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  return Fail(error, std::move(message));
}

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

// ---------------------------------------------------------------------------
// ObjectReader
// ---------------------------------------------------------------------------

ObjectReader::ObjectReader(const Value& object, std::string what, std::string* error,
                           std::string separator)
    : object_(object),
      what_(std::move(what)),
      separator_(std::move(separator)),
      error_(error) {
  if (!object_.is_object()) {
    Fail(what_ + " must be a JSON object");
  }
}

const Value* ObjectReader::Find(const std::string& key) {
  if (!ok_) {
    return nullptr;
  }
  read_.push_back(key);
  return object_.Find(key);
}

bool ObjectReader::Require(const std::string& key) {
  return ok_ && (object_.Find(key) != nullptr || Fail(Member(key) + " is missing"));
}

bool ObjectReader::Number(const std::string& key, double* out) {
  const Value* v = Find(key);
  if (!ok_ || v == nullptr) {
    return ok_;
  }
  if (!v->is_number()) {
    return Fail(Member(key) + " must be a number");
  }
  *out = v->AsDouble();
  return true;
}

bool ObjectReader::Fail(std::string message) {
  if (ok_ && !message.empty()) {
    json::Fail(error_, std::move(message));
  }
  ok_ = false;
  return false;
}

bool ObjectReader::Finish() {
  if (!ok_) {
    return false;
  }
  for (const std::string& key : object_.Keys()) {
    if (std::find(read_.begin(), read_.end(), key) == read_.end()) {
      return Fail(what_ + " has unknown key \"" + key + "\"");
    }
  }
  return true;
}

const std::string& Value::AsString() const {
  DRACONIS_CHECK_MSG(is_string(), "JSON value is not a string");
  return string_;
}

const std::vector<Value>& Value::AsArray() const {
  DRACONIS_CHECK_MSG(is_array(), "JSON value is not an array");
  return array_;
}

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

std::vector<std::string> Value::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(members_.size());
  for (const auto& [name, value] : members_) {
    keys.push_back(name);
  }
  return keys;
}

Value Value::Null() { return Value{}; }

Value Value::MakeBool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Array(std::vector<Value> items) {
  Value v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::Object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.type_ = Type::kObject;
  v.members_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// Parse
// ---------------------------------------------------------------------------

namespace {

// Hand-rolled recursive-descent parser. Sized for config documents: one pass,
// positions tracked for error messages, depth-capped against pathological
// nesting.
class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  bool Run(Value* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out, 0)) {
      Fill(error);
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      error_ = "trailing characters after the JSON document";
      Fill(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void Fill(std::string* error) const {
    if (error == nullptr) {
      return;
    }
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      line += text_[i] == '\n' ? 1 : 0;
    }
    *error = "line " + std::to_string(line) + ": " + error_;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t len) {
    if (text_.compare(pos_, len, word) != 0) {
      error_ = std::string("invalid literal, expected '") + word + "'";
      return false;
    }
    pos_ += len;
    return true;
  }

  bool ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) {
      error_ = "nesting too deep";
      return false;
    }
    if (pos_ >= text_.size()) {
      error_ = "unexpected end of document";
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) {
          return false;
        }
        *out = Value::Str(std::move(s));
        return true;
      }
      case 't':
        *out = Value::MakeBool(true);
        return Literal("true", 4);
      case 'f':
        *out = Value::MakeBool(false);
        return Literal("false", 5);
      case 'n':
        *out = Value::Null();
        return Literal("null", 4);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, Value>> members;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = Value::Object(std::move(members));
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        error_ = "expected a string object key";
        return false;
      }
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        error_ = "expected ':' after object key \"" + key + "\"";
        return false;
      }
      ++pos_;
      SkipWs();
      Value value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        error_ = "unterminated object";
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = Value::Object(std::move(members));
        return true;
      }
      error_ = "expected ',' or '}' in object";
      return false;
    }
  }

  bool ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    std::vector<Value> items;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = Value::Array(std::move(items));
      return true;
    }
    while (true) {
      SkipWs();
      Value value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      items.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        error_ = "unterminated array";
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = Value::Array(std::move(items));
        return true;
      }
      error_ = "expected ',' or ']' in array";
      return false;
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = std::move(s);
        return true;
      }
      if (c != '\\') {
        s += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          s += esc;
          break;
        case 'n':
          s += '\n';
          break;
        case 't':
          s += '\t';
          break;
        case 'r':
          s += '\r';
          break;
        case 'b':
          s += '\b';
          break;
        case 'f':
          s += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            error_ = "truncated \\u escape";
            return false;
          }
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
              error_ = "invalid \\u escape";
              return false;
            }
          }
          // The writer only ever emits \u00xx control escapes; encode the
          // BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            s += static_cast<char>(code);
          } else if (code < 0x800) {
            s += static_cast<char>(0xC0 | (code >> 6));
            s += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (code >> 12));
            s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          error_ = std::string("invalid escape '\\") + esc + "'";
          return false;
      }
    }
    error_ = "unterminated string";
    return false;
  }

  bool ParseNumber(Value* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool number_char = (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
                               c == '+' || c == '-';
      if (!number_char) {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) {
      error_ = std::string("unexpected character '") + text_[pos_] + "'";
      return false;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      error_ = "malformed number '" + token + "'";
      return false;
    }
    *out = Value::Number(value);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool Parse(const std::string& text, Value* out, std::string* error) {
  DRACONIS_CHECK(out != nullptr);
  return Reader(text).Run(out, error);
}

}  // namespace draconis::json
