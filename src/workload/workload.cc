#include "workload/workload.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace draconis::workload {

size_t TotalTasks(const JobStream& stream) {
  size_t total = 0;
  for (const JobArrival& job : stream) {
    total += job.tasks.size();
  }
  return total;
}

TimeNs TotalWork(const JobStream& stream) {
  TimeNs total = 0;
  for (const JobArrival& job : stream) {
    for (const TaskSpec& task : job.tasks) {
      total += task.duration;
    }
  }
  return total;
}

const std::vector<double>& PaperPriorityMix() {
  static const std::vector<double> kMix = {1.2, 1.7, 64.6, 32.2};
  return kMix;
}

// --- Arrival engines, taggers and stage names ----------------------------------
//
// Generate() validates the spec before it calls an engine, and
// TaggerStage::Apply validates its stage, so these skip the argument checks.
// Changing an engine's or a tagger's RNG draw order changes every stream; the
// WorkloadPinTest fingerprints in tests/workload_test.cc catch that.

namespace {

// Open-loop Poisson arrivals: tasks_per_second on average over [0, duration),
// grouped into jobs of `tasks_per_job`.
JobStream GenerateOpenLoop(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  JobStream stream;
  const double jobs_per_second =
      spec.tasks_per_second / static_cast<double>(spec.tasks_per_job);
  TimeNs at = rng.NextPoissonGap(jobs_per_second);
  while (at < spec.duration) {
    JobArrival job;
    job.at = at;
    job.tasks.reserve(spec.tasks_per_job);
    for (size_t i = 0; i < spec.tasks_per_job; ++i) {
      TaskSpec task;
      task.duration = spec.service.Sample(rng);
      job.tasks.push_back(task);
    }
    stream.push_back(std::move(job));
    at += rng.NextPoissonGap(jobs_per_second);
  }
  return stream;
}

// Fig. 11's phased resource workload: three consecutive phases of equal
// length; tasks in phase p require resource bit p (A=1, B=2, C=4).
JobStream GenerateResourcePhases(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  JobStream stream;
  const TimeNs total = 3 * spec.phase_duration;
  TimeNs at = rng.NextPoissonGap(spec.tasks_per_second);
  while (at < total) {
    const auto phase = static_cast<uint32_t>(at / spec.phase_duration);  // 0, 1, 2
    JobArrival job;
    job.at = at;
    TaskSpec task;
    task.duration = spec.service.Sample(rng);
    task.tprops = 1u << phase;  // A=1, B=2, C=4
    job.tasks.push_back(task);
    stream.push_back(std::move(job));
    at += rng.NextPoissonGap(spec.tasks_per_second);
  }
  return stream;
}

// Tags every task with a uniformly random data-local node in [0, num_nodes)
// (Fig. 10: unreplicated data, evenly partitioned across the nodes).
void TagLocality(JobStream& stream, uint32_t num_nodes, uint64_t seed) {
  Rng rng(seed);
  for (JobArrival& job : stream) {
    for (TaskSpec& task : job.tasks) {
      task.tprops = static_cast<uint32_t>(rng.NextBelow(num_nodes));
    }
  }
}

// Tags every task with a 1-based priority level drawn from `mix` (fractions
// per level; normalized).
void TagPriorities(JobStream& stream, const std::vector<double>& mix, uint64_t seed) {
  double total = 0.0;
  for (double w : mix) {
    total += w;
  }
  Rng rng(seed);
  for (JobArrival& job : stream) {
    for (TaskSpec& task : job.tasks) {
      double u = rng.NextDouble() * total;
      uint32_t level = static_cast<uint32_t>(mix.size());
      for (size_t i = 0; i < mix.size(); ++i) {
        if (u < mix[i]) {
          level = static_cast<uint32_t>(i + 1);
          break;
        }
        u -= mix[i];
      }
      task.tprops = level;
    }
  }
}

// Tags every task with a relative deadline in TPROPS, in microseconds (the
// EDF rank function's input, docs/pifo.md): `slack` x the task's own service
// time plus up to `jitter_us` of uniform extra laxity, floored at 1 µs.
void TagDeadlines(JobStream& stream, double slack, uint32_t jitter_us, uint64_t seed) {
  Rng rng(seed);
  for (JobArrival& job : stream) {
    for (TaskSpec& task : job.tasks) {
      const double service_us = static_cast<double>(task.duration) / 1000.0;
      uint64_t deadline_us = static_cast<uint64_t>(service_us * slack);
      if (deadline_us < 1) {
        deadline_us = 1;
      }
      deadline_us += rng.NextBelow(static_cast<uint64_t>(jitter_us) + 1);
      task.tprops = static_cast<uint32_t>(deadline_us);
    }
  }
}

// Tags each job with a uniformly random tenant id in [0, num_tenants) in
// TPROPS (all tasks of a job belong to one tenant) — the WFQ rank function's
// input.
void TagTenants(JobStream& stream, uint32_t num_tenants, uint64_t seed) {
  Rng rng(seed);
  for (JobArrival& job : stream) {
    const uint32_t tenant = static_cast<uint32_t>(rng.NextBelow(num_tenants));
    for (TaskSpec& task : job.tasks) {
      task.tprops = tenant;
    }
  }
}

// Synthetic stand-in for the accelerated Google 2011 cluster trace (§8.4).
//
// The real trace is proprietary-ish bulk data we do not ship; what the
// paper's evaluation actually uses from it is (a) bursty job arrivals that
// "may submit hundreds of tasks at once", (b) a skewed task-duration
// distribution accelerated to a target mean (500 us or 5 ms), and (c) the
// 12-level priority labels mapped onto 4 levels with the observed mix. This
// generator reproduces those three properties: bounded-Pareto job sizes
// in [1, max_job_size] with shape burst_alpha, lognormal task durations with
// shape duration_sigma, and the paper's priority mix.
JobStream GenerateGoogleTrace(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  JobStream stream;

  TimeNs at = 0;
  while (at < spec.duration) {
    const auto burst = static_cast<size_t>(rng.NextBoundedPareto(
        1.0, static_cast<double>(spec.max_job_size) + 0.999, spec.burst_alpha));
    JobArrival job;
    job.at = at;
    job.tasks.reserve(burst);
    for (size_t i = 0; i < burst; ++i) {
      TaskSpec task;
      task.duration = static_cast<TimeNs>(rng.NextLognormalWithMean(
          static_cast<double>(spec.mean_task_duration), spec.duration_sigma));
      if (task.duration < 1) {
        task.duration = 1;
      }
      job.tasks.push_back(task);
    }
    stream.push_back(std::move(job));

    // Keep the long-run task rate at the target: the mean gap to the next
    // burst carries this burst's worth of tasks.
    const double gap_seconds =
        rng.NextExponential(static_cast<double>(burst) / spec.tasks_per_second);
    TimeNs gap = static_cast<TimeNs>(gap_seconds * kSecond);
    at += gap > 0 ? gap : 1;
  }

  // priority_levels is 0 (untagged) or 4, the paper's mapping.
  if (spec.priority_levels > 0) {
    TagPriorities(stream, PaperPriorityMix(), rng.NextU64());
  }
  return stream;
}

// Integer ranges of the JSON-readable fields (json::ReadInt reads int64).
constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
constexpr int64_t kMaxSeed = std::numeric_limits<int64_t>::max();

}  // namespace

// --- TaggerStage -------------------------------------------------------------

TaggerStage TaggerStage::Locality(uint32_t num_nodes, uint64_t seed) {
  TaggerStage stage;
  stage.kind = Kind::kLocality;
  stage.num_nodes = num_nodes;
  stage.seed = seed;
  return stage;
}

TaggerStage TaggerStage::Priority(std::vector<double> mix, uint64_t seed) {
  TaggerStage stage;
  stage.kind = Kind::kPriority;
  stage.mix = std::move(mix);
  stage.seed = seed;
  return stage;
}

TaggerStage TaggerStage::Deadline(double slack, uint32_t jitter_us, uint64_t seed) {
  TaggerStage stage;
  stage.kind = Kind::kDeadline;
  stage.slack = slack;
  stage.jitter_us = jitter_us;
  stage.seed = seed;
  return stage;
}

TaggerStage TaggerStage::Tenant(uint32_t num_tenants, uint64_t seed) {
  TaggerStage stage;
  stage.kind = Kind::kTenant;
  stage.num_tenants = num_tenants;
  stage.seed = seed;
  return stage;
}

void TaggerStage::Apply(JobStream& stream) const {
  const std::string invalid = Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), "invalid TaggerStage: " + invalid);
  switch (kind) {
    case Kind::kLocality:
      TagLocality(stream, num_nodes, seed);
      return;
    case Kind::kPriority:
      TagPriorities(stream, mix, seed);
      return;
    case Kind::kDeadline:
      TagDeadlines(stream, slack, jitter_us, seed);
      return;
    case Kind::kTenant:
      TagTenants(stream, num_tenants, seed);
      return;
  }
}

std::string TaggerStage::Validate() const {
  switch (kind) {
    case Kind::kLocality:
      if (num_nodes == 0) {
        return "locality tagger: num_nodes must be positive";
      }
      return "";
    case Kind::kPriority: {
      if (mix.empty()) {
        return "priority tagger: mix must be non-empty";
      }
      double total = 0.0;
      for (double m : mix) {
        if (m < 0.0) {
          return "priority tagger: mix fractions must be non-negative";
        }
        total += m;
      }
      if (total <= 0.0) {
        return "priority tagger: mix must sum to a positive value";
      }
      return "";
    }
    case Kind::kDeadline:
      if (slack <= 0.0) {
        return "deadline tagger: slack must be positive";
      }
      return "";
    case Kind::kTenant:
      if (num_tenants == 0) {
        return "tenant tagger: num_tenants must be positive";
      }
      return "";
  }
  return "";
}

void TaggerStage::WriteJson(json::Writer& w) const {
  w.BeginObject();
  w.Key("stage").String(names::Name(kind));
  switch (kind) {
    case Kind::kLocality:
      w.Key("num_nodes").UInt(num_nodes);
      break;
    case Kind::kPriority:
      w.Key("mix").BeginArray();
      for (double m : mix) {
        w.Double(m);
      }
      w.EndArray();
      break;
    case Kind::kDeadline:
      w.Key("slack").Double(slack);
      w.Key("jitter_us").UInt(jitter_us);
      break;
    case Kind::kTenant:
      w.Key("num_tenants").UInt(num_tenants);
      break;
  }
  w.Key("seed").UInt(seed);
  w.EndObject();
}

bool TaggerStage::FromJson(const json::Value& v, TaggerStage* out, std::string* error) {
  json::ObjectReader r(v, "tagger", error);
  TaggerStage parsed;
  if (!r.Enum("stage", &parsed.kind)) {
    return false;
  }
  r.set_what(std::string(names::Name(parsed.kind)) + " tagger");
  r.Require("seed");
  r.Int("seed", 0, kMaxSeed, &parsed.seed);
  switch (parsed.kind) {
    case Kind::kLocality:
      r.Require("num_nodes");
      r.Int("num_nodes", 0, kMaxU32, &parsed.num_nodes);
      break;
    case Kind::kPriority: {
      r.Require("mix");
      if (const json::Value* mix = r.Find("mix"); mix != nullptr) {
        if (!mix->is_array()) {
          return r.Fail(r.Member("mix") + " must be an array of numbers");
        }
        parsed.mix.clear();
        for (const json::Value& m : mix->AsArray()) {
          if (!m.is_number()) {
            return r.Fail(r.Member("mix") + " must be an array of numbers");
          }
          parsed.mix.push_back(m.AsDouble());
        }
      }
      break;
    }
    case Kind::kDeadline:
      r.Require("slack");
      r.Number("slack", &parsed.slack);
      r.Require("jitter_us");
      r.Int("jitter_us", 0, kMaxU32, &parsed.jitter_us);
      break;
    case Kind::kTenant:
      r.Require("num_tenants");
      r.Int("num_tenants", 0, kMaxU32, &parsed.num_tenants);
      break;
  }
  if (!r.Finish()) {
    return false;
  }
  const std::string invalid = parsed.Validate();
  if (!invalid.empty()) {
    return json::Fail(error, invalid);
  }
  *out = std::move(parsed);
  return true;
}

// --- WorkloadSpec ------------------------------------------------------------

JobStream WorkloadSpec::Generate() const {
  const std::string invalid = Validate();
  DRACONIS_CHECK_MSG(invalid.empty(), "invalid WorkloadSpec: " + invalid);
  JobStream stream;
  switch (arrival) {
    case ArrivalKind::kNone:
      return stream;
    case ArrivalKind::kOpenLoop:
      stream = GenerateOpenLoop(*this);
      break;
    case ArrivalKind::kPhased:
      stream = GenerateResourcePhases(*this);
      break;
    case ArrivalKind::kGoogleTrace:
      stream = GenerateGoogleTrace(*this);
      break;
  }
  for (const TaggerStage& stage : taggers) {
    stage.Apply(stream);
  }
  return stream;
}

TimeNs WorkloadSpec::ArrivalEnd() const {
  switch (arrival) {
    case ArrivalKind::kNone:
      return 0;
    case ArrivalKind::kOpenLoop:
    case ArrivalKind::kGoogleTrace:
      return duration;
    case ArrivalKind::kPhased:
      return 3 * phase_duration;
  }
  return 0;
}

std::string WorkloadSpec::Validate() const {
  if (arrival == ArrivalKind::kNone) {
    return "";
  }
  if (tasks_per_second <= 0.0) {
    return "workload: tasks_per_second must be positive";
  }
  if ((arrival == ArrivalKind::kOpenLoop || arrival == ArrivalKind::kGoogleTrace) &&
      duration <= 0) {
    return "workload: duration must be positive";
  }
  if (arrival == ArrivalKind::kOpenLoop && tasks_per_job == 0) {
    return "workload: tasks_per_job must be positive";
  }
  if (arrival == ArrivalKind::kPhased && phase_duration <= 0) {
    return "workload: phase_duration must be positive";
  }
  if (arrival == ArrivalKind::kGoogleTrace) {
    if (mean_task_duration <= 0) {
      return "workload: mean_task_duration must be positive";
    }
    if (duration_sigma <= 0.0 || burst_alpha <= 0.0) {
      return "workload: duration_sigma and burst_alpha must be positive";
    }
    if (max_job_size == 0) {
      return "workload: max_job_size must be positive";
    }
    if (priority_levels != 0 && priority_levels != 4) {
      return "workload: priority_levels must be 0 (untagged) or 4 (paper mix)";
    }
  }
  for (const TaggerStage& stage : taggers) {
    const std::string invalid = stage.Validate();
    if (!invalid.empty()) {
      return "workload: " + invalid;
    }
  }
  return "";
}

std::string WorkloadSpec::label() const {
  std::string out = names::Name(arrival);
  if (arrival == ArrivalKind::kOpenLoop || arrival == ArrivalKind::kPhased) {
    out += " " + service.label();
  }
  return out;
}

void WorkloadSpec::WriteJson(json::Writer& w) const {
  w.BeginObject();
  w.Key("arrival").String(names::Name(arrival));
  w.Key("tasks_per_second").Double(tasks_per_second);
  switch (arrival) {
    case ArrivalKind::kNone:
      break;
    case ArrivalKind::kOpenLoop:
      w.Key("duration_ns").Int(duration);
      w.Key("tasks_per_job").UInt(tasks_per_job);
      w.Key("service").String(service.Name());
      break;
    case ArrivalKind::kPhased:
      w.Key("phase_duration_ns").Int(phase_duration);
      w.Key("service").String(service.Name());
      break;
    case ArrivalKind::kGoogleTrace:
      w.Key("duration_ns").Int(duration);
      w.Key("mean_task_duration_ns").Int(mean_task_duration);
      w.Key("duration_sigma").Double(duration_sigma);
      w.Key("burst_alpha").Double(burst_alpha);
      w.Key("max_job_size").UInt(max_job_size);
      w.Key("priority_levels").UInt(priority_levels);
      break;
  }
  w.Key("seed").UInt(seed);
  if (!taggers.empty()) {
    w.Key("taggers").BeginArray();
    for (const TaggerStage& stage : taggers) {
      stage.WriteJson(w);
    }
    w.EndArray();
  }
  w.EndObject();
}

std::string WorkloadSpec::ToJson() const {
  json::Writer w;
  WriteJson(w);
  return w.str();
}

bool WorkloadSpec::FromJson(const json::Value& v, WorkloadSpec* out, std::string* error) {
  constexpr int64_t kMinTime = std::numeric_limits<TimeNs>::min();
  constexpr int64_t kMaxTime = std::numeric_limits<TimeNs>::max();
  json::ObjectReader r(v, "workload", error);
  WorkloadSpec parsed;
  // An absent member keeps its default; a present one must be well-typed.
  r.Enum("arrival", &parsed.arrival);
  r.Number("tasks_per_second", &parsed.tasks_per_second);
  r.Number("duration_sigma", &parsed.duration_sigma);
  r.Number("burst_alpha", &parsed.burst_alpha);
  r.Int("duration_ns", kMinTime, kMaxTime, &parsed.duration);
  r.Int("tasks_per_job", 0, kMaxU32, &parsed.tasks_per_job);
  r.Int("phase_duration_ns", kMinTime, kMaxTime, &parsed.phase_duration);
  r.Int("mean_task_duration_ns", kMinTime, kMaxTime, &parsed.mean_task_duration);
  r.Int("max_job_size", 0, kMaxU32, &parsed.max_job_size);
  r.Int("priority_levels", 0, kMaxU32, &parsed.priority_levels);
  r.Int("seed", 0, kMaxSeed, &parsed.seed);
  if (const json::Value* service = r.Find("service");
      service != nullptr &&
      !ServiceTime::FromJson(*service, r.Member("service"), &parsed.service, error)) {
    return false;
  }
  if (const json::Value* taggers = r.Find("taggers"); taggers != nullptr) {
    if (!taggers->is_array()) {
      return r.Fail(r.Member("taggers") + " must be an array");
    }
    for (const json::Value& t : taggers->AsArray()) {
      TaggerStage stage;
      if (!TaggerStage::FromJson(t, &stage, error)) {
        return false;
      }
      parsed.taggers.push_back(std::move(stage));
    }
  }
  if (!r.Finish()) {
    return false;
  }
  const std::string invalid = parsed.Validate();
  if (!invalid.empty()) {
    return json::Fail(error, invalid);
  }
  *out = std::move(parsed);
  return true;
}

bool WorkloadSpec::FromName(const std::string& name, WorkloadSpec* out,
                            std::string* error) {
  WorkloadSpec parsed;
  if (!names::Parse(name, &parsed.arrival) || !parsed.enabled()) {
    return json::Fail(error, "unknown workload '" + name + "'; must be one of " +
                                 names::Choices<ArrivalKind>());
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace draconis::workload
