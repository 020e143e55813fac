// Enum spellings: one table per enum a user can type, one lookup for all.
//
// Each such enum (a policy, a queue backend, an arrival process, a fault
// kind, ...) lists its spellings once, in an ADL-found NameTable() next to
// the enum:
//
//   enum class Shape { kChain, kFan };
//   inline names::Table<Shape> NameTable(Shape) {
//     static constexpr names::Spelling<Shape> kNames[] = {
//         {Shape::kChain, "chain"}, {Shape::kFan, "fanout"}};
//     return kNames;
//   }
//
// and every name function is the shared template below: Name() writes the
// spelling, Parse() reads it back case-insensitively, Values() enumerates
// the enum in table order, and Names()/Choices() list the spellings a user
// chooses from (flag choices, "must be one of a|b|c" errors). Table
// spellings are lower case.

#ifndef DRACONIS_COMMON_NAMES_H_
#define DRACONIS_COMMON_NAMES_H_

#include <span>
#include <string>
#include <vector>

namespace draconis::names {

template <typename E>
struct Spelling {
  E value;
  const char* name;
  // false: Name() writes it and Parse() reads it, but it is not offered as
  // a choice (a "not configured" value such as ArrivalKind::kNone).
  bool listed = true;
};

template <typename E>
using Table = std::span<const Spelling<E>>;

// ASCII lower-casing: the one case fold every name parser shares.
std::string AsciiLower(std::string s);

// The spelling of `value`; "?" for a value the table does not list.
template <typename E>
const char* Name(E value) {
  for (const Spelling<E>& s : NameTable(value)) {
    if (s.value == value) {
      return s.name;
    }
  }
  return "?";
}

// Case-insensitive parse. Returns false and leaves *out untouched on an
// unknown name.
template <typename E>
bool Parse(const std::string& name, E* out) {
  const std::string lower = AsciiLower(name);
  for (const Spelling<E>& s : NameTable(E{})) {
    if (lower == s.name) {
      *out = s.value;
      return true;
    }
  }
  return false;
}

// Every value in table order.
template <typename E>
std::vector<E> Values() {
  std::vector<E> values;
  for (const Spelling<E>& s : NameTable(E{})) {
    values.push_back(s.value);
  }
  return values;
}

// The listed spellings in table order.
template <typename E>
std::vector<std::string> Names() {
  std::vector<std::string> names;
  for (const Spelling<E>& s : NameTable(E{})) {
    if (s.listed) {
      names.push_back(s.name);
    }
  }
  return names;
}

// The listed spellings joined by '|', for "must be one of ..." errors.
template <typename E>
std::string Choices() {
  std::string out;
  for (const std::string& name : Names<E>()) {
    out += (out.empty() ? "" : "|") + name;
  }
  return out;
}

}  // namespace draconis::names

#endif  // DRACONIS_COMMON_NAMES_H_
