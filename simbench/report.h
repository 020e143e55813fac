// Reporting helpers of the host-cost benchmark: the metric-name grammar,
// order statistics over repetitions, the result document, and the in-memory
// span log of the traced pass.

#ifndef DRACONIS_SIMBENCH_REPORT_H_
#define DRACONIS_SIMBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace draconis::simbench {

// A metric name starts with a letter or a digit and has at most 64 letters,
// digits, '_', '.' and '-'.
bool ValidMetricName(std::string_view name);

// A unit has 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool ValidUnit(std::string_view unit);

// First quartile, median and third quartile, interpolated exactly like
// Python's statistics.quantiles(values, n=4) (the default "exclusive"
// method), so the benchmark's spreads match what its callers compute.
// Requires at least one value; a single value is all three quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

inline double Median(std::vector<double> values) {
  return ComputeQuartiles(std::move(values)).median;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result document:
//   {"correct": .., "attempted": .., "failed": ..,
//    "metrics": {"<name>": {"value": .., "unit": ".."}, ...}}
// Fails a CHECK on an invalid metric name or unit, or a repeated name.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// Spans of the traced pass: name, start, end and parent, held in memory
// until the pass ends and then written out as one JSON document.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    double start_s = 0.0;  // seconds since the log was created
    double end_s = 0.0;
    int parent = kNoParent;
  };

  // Opens a span as a child of the innermost open span; returns its id.
  int Begin(std::string name);
  // Closes span `id`, which must be the innermost open span.
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  double Duration(int id) const { return spans_[id].end_s - spans_[id].start_s; }
  // Duration minus the time its direct children cover.
  double SelfTime(int id) const;

  std::string ToJson() const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span: Begin on construction, End on destruction. A null log records
// nothing, so one code path serves the traced and the untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->Begin(std::move(name)) : SpanLog::kNoParent) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace draconis::simbench

#endif  // DRACONIS_SIMBENCH_REPORT_H_
