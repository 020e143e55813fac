#include "report.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/json.h"

namespace draconis::simbench {

namespace {

bool AllOf(std::string_view s, std::string_view extra) {
  return std::all_of(s.begin(), s.end(), [extra](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
           extra.find(c) != std::string_view::npos;
  });
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  return !name.empty() && name.size() <= 64 &&
         std::isalnum(static_cast<unsigned char>(name[0])) != 0 && AllOf(name, "_.-");
}

bool ValidUnit(std::string_view unit) {
  return !unit.empty() && unit.size() <= 16 && AllOf(unit, "_/%.-");
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  DRACONIS_CHECK_MSG(!values.empty(), "quartiles of an empty sample");
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<int64_t>(values.size());
  if (ld == 1) {
    return {values[0], values[0], values[0]};
  }
  // statistics.quantiles, method="exclusive", n=4: position i*(ld+1)/4,
  // clamped to [1, ld-1], linearly interpolated with exact integer weights.
  double q[3];
  const int64_t m = ld + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  json::Writer w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").UInt(attempted);
  w.Key("failed").UInt(failed);
  w.Key("metrics").BeginObject();
  std::set<std::string> seen;
  for (const Metric& m : metrics) {
    DRACONIS_CHECK_MSG(ValidMetricName(m.name), "invalid metric name '" + m.name + "'");
    DRACONIS_CHECK_MSG(ValidUnit(m.unit), "invalid unit '" + m.unit + "' of " + m.name);
    DRACONIS_CHECK_MSG(seen.insert(m.name).second, "metric '" + m.name + "' repeated");
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

int SpanLog::Begin(std::string name) {
  const int parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Span{std::move(name), Now(), 0.0, parent});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  DRACONIS_CHECK_MSG(!open_.empty() && open_.back() == id, "spans must close innermost first");
  open_.pop_back();
  spans_[id].end_s = Now();
}

double SpanLog::SelfTime(int id) const {
  double self = Duration(id);
  for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) {
      self -= Duration(static_cast<int>(i));
    }
  }
  return self;
}

std::string SpanLog::ToJson() const {
  json::Writer w;
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("id").UInt(i);
    w.Key("name").String(s.name);
    w.Key("start_s").Double(s.start_s);
    w.Key("end_s").Double(s.end_s);
    w.Key("self_s").Double(SelfTime(static_cast<int>(i)));
    w.Key("parent").Int(s.parent);
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

}  // namespace draconis::simbench
