#include "common/time.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace draconis {

std::string FormatDuration(TimeNs t) {
  const bool negative = t < 0;
  const double abs_ns = std::fabs(static_cast<double>(t));
  char buf[48];
  if (abs_ns < 1000.0) {
    std::snprintf(buf, sizeof(buf), "%s%.0fns", negative ? "-" : "", abs_ns);
  } else if (abs_ns < 1000.0 * kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%s%.2fus", negative ? "-" : "", abs_ns / kMicrosecond);
  } else if (abs_ns < 1000.0 * kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%s%.2fms", negative ? "-" : "", abs_ns / kMillisecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%.3fs", negative ? "-" : "", abs_ns / kSecond);
  }
  return buf;
}

bool ParseDuration(const std::string& text, TimeNs* out) {
  if (out == nullptr || text.empty()) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !std::isfinite(value) || value < 0.0) {
    return false;
  }
  double scale = 0.0;
  if (*end == '\0') {
    if (value != 0.0) {
      return false;  // a bare number is ambiguous; only "0" needs no unit
    }
    scale = 1.0;
  } else if (std::strcmp(end, "ns") == 0) {
    scale = 1.0;
  } else if (std::strcmp(end, "us") == 0) {
    scale = static_cast<double>(kMicrosecond);
  } else if (std::strcmp(end, "ms") == 0) {
    scale = static_cast<double>(kMillisecond);
  } else if (std::strcmp(end, "s") == 0) {
    scale = static_cast<double>(kSecond);
  } else {
    return false;
  }
  // 2^63 ns (about 292 years) and beyond does not fit in TimeNs; casting it
  // would be undefined and in practice wraps to a negative duration.
  const double ns = value * scale;
  if (ns >= 9223372036854775808.0) {
    return false;
  }
  *out = static_cast<TimeNs>(ns);
  return true;
}

}  // namespace draconis
