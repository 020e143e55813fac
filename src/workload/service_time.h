// Task service-time distributions of the paper's synthetic suite (§8):
// fixed 100/250/500 us, bimodal (50% 100 us + 50% 500 us), trimodal
// (1/3 each of 100/250/500 us), and exponential with mean 250 us — plus the
// heavy-tail axis (docs/workloads.md): unbounded Pareto and a HeavyTail
// wrapper that inflates a fraction of any base distribution's samples.
//
// Every model has a canonical machine-readable name ("fixed:500.00us",
// "pareto:250.00us:1.3", "heavytail:0.01:10:bimodal", ...) that FromName
// parses back, so a distribution is fully described by one flag value and
// round-trips through sweep JSON.

#ifndef DRACONIS_WORKLOAD_SERVICE_TIME_H_
#define DRACONIS_WORKLOAD_SERVICE_TIME_H_

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/time.h"

namespace draconis::workload {

class ServiceTime {
 public:
  // A point mass at `value`.
  static ServiceTime Fixed(TimeNs value);
  // A discrete mixture: values[i] with probability weights[i] (normalized).
  static ServiceTime Mixture(std::vector<TimeNs> values, std::vector<double> weights,
                             std::string label);
  // Exponential with the given mean.
  static ServiceTime Exponential(TimeNs mean);
  // Lognormal with the given arithmetic mean and shape sigma.
  static ServiceTime Lognormal(TimeNs mean, double sigma);
  // Unbounded Pareto with the given arithmetic mean and shape alpha (> 1);
  // the scale is mean * (alpha - 1) / alpha so the target mean is exact.
  static ServiceTime Pareto(TimeNs mean, double alpha);
  // Heavy-tail wrapper: samples `base`, then with probability `prob`
  // multiplies the sample by `mult` (the --heavy-tail-prob/--heavy-tail-mult
  // axis). Always consumes exactly one extra draw per sample so wrapping
  // never perturbs downstream draw order.
  static ServiceTime HeavyTail(ServiceTime base, double prob, double mult);

  // --- The paper's named workloads -----------------------------------------
  static ServiceTime PaperBimodal();   // 50% 100 us, 50% 500 us
  static ServiceTime PaperTrimodal();  // 1/3 each of 100/250/500 us
  static ServiceTime PaperExponential();  // mean 250 us

  // Parses a canonical name (see Name()) or a paper alias ("bimodal",
  // "trimodal", "exponential"). On failure returns false and, when `error`
  // is non-null, explains what was wrong. FromName(Name()) always succeeds
  // and reproduces the same distribution.
  static bool FromName(const std::string& name, ServiceTime* out,
                       std::string* error = nullptr);

  // A JSON member holding a service-time name; `what` names it in errors.
  static bool FromJson(const json::Value& v, const std::string& what, ServiceTime* out,
                       std::string* error);

  // Grammar templates for --help text and list_schedulers --workloads.
  static const std::vector<std::string>& NameTemplates();

  TimeNs Sample(Rng& rng) const;
  TimeNs Mean() const;
  const std::string& label() const { return label_; }
  // Canonical machine-readable name; FromName(Name()) round-trips.
  const std::string& Name() const { return name_; }

 private:
  enum class Kind { kFixed, kMixture, kExponential, kLognormal, kPareto, kHeavyTail };

  ServiceTime(Kind kind, std::string label) : kind_(kind), label_(std::move(label)) {}

  Kind kind_;
  std::string label_;
  std::string name_;
  TimeNs fixed_value_ = 0;
  std::vector<TimeNs> values_;
  std::vector<double> cumulative_;
  TimeNs mean_ = 0;
  double sigma_ = 0.0;   // lognormal shape
  double alpha_ = 0.0;   // pareto shape
  double hv_prob_ = 0.0;  // heavy-tail inflation probability
  double hv_mult_ = 1.0;  // heavy-tail multiplier
  std::shared_ptr<const ServiceTime> base_;  // heavy-tail wrapped model
};

}  // namespace draconis::workload

#endif  // DRACONIS_WORKLOAD_SERVICE_TIME_H_
