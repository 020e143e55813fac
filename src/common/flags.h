// Minimal command-line flag parsing for the bench/example binaries.
//
// Supports --name=value and --name value forms, plus --help. Flags bind to
// caller-owned variables so defaults read naturally at the call site.

#ifndef DRACONIS_COMMON_FLAGS_H_
#define DRACONIS_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace draconis::flags {

class Parser {
 public:
  explicit Parser(std::string program_description);

  // Registration: `out` must outlive Parse and already hold the default.
  void AddDouble(const std::string& name, double* out, const std::string& help);
  void AddInt64(const std::string& name, int64_t* out, const std::string& help);
  void AddBool(const std::string& name, bool* out, const std::string& help);
  void AddString(const std::string& name, std::string* out, const std::string& help);

  // A duration with a unit suffix: accepts "500us", "40ms", "1.5s", "250ns".
  void AddDuration(const std::string& name, TimeNs* out, const std::string& help);

  // A string restricted to a fixed choice set; parsing rejects anything else
  // and Usage() lists the alternatives. `*out` must be one of `choices`, or
  // empty for "not set" (an empty value then stays accepted).
  void AddChoice(const std::string& name, std::string* out,
                 std::vector<std::string> choices, const std::string& help);

  // Parses argv. On error fills *error and returns false. "--help" sets
  // help_requested() and returns true without touching other flags.
  bool Parse(int argc, const char* const* argv, std::string* error);

  bool help_requested() const { return help_requested_; }
  std::string Usage() const;

 private:
  enum class Kind { kDouble, kInt64, kBool, kString, kDuration, kChoice };

  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_text;
    std::vector<std::string> choices;  // kChoice only
  };

  const Flag* Find(const std::string& name) const;
  static bool Assign(const Flag& flag, const std::string& value);
  static std::string JoinChoices(const Flag& flag);  // "a|b|c"

  std::string description_;
  std::vector<Flag> registered_;
  bool help_requested_ = false;
};

}  // namespace draconis::flags

#endif  // DRACONIS_COMMON_FLAGS_H_
