// The declarative workload platform (docs/workloads.md).
//
// A workload::WorkloadSpec is one value type that fully describes a job
// stream: an arrival process (open-loop Poisson, the Fig. 11 phased ramp, or
// the synthetic Google-trace replay), a ServiceTime distribution, and an
// ordered stack of tagger stages (locality / priority / deadline / tenant)
// that stamp TPROPS after generation. It is the only public description of
// an open-loop stream: benches set a spec on ExperimentConfig::workload,
// which is what lets one flag (--service-time, --heavy-tail-*) re-shape
// every bench. The arrival engines are private to workload.cc.
//
// Determinism contract: Generate() runs the arrival engine on Rng(seed) and
// then each tagger on its own Rng(stage.seed), so a spec names exactly one
// JobStream. tests/workload_test.cc (WorkloadPinTest) pins the streams of
// four specs; the simulation goldens in tests/determinism_test.cc ride on
// them.

#ifndef DRACONIS_WORKLOAD_WORKLOAD_H_
#define DRACONIS_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/names.h"
#include "common/time.h"
#include "workload/service_time.h"
#include "workload/spec.h"

namespace draconis::workload {

// Which arrival process drives the stream. kNone means the config carries
// no open-loop stream (DAG runs, or a hand-built stream run through a
// cluster::Feeder).
enum class ArrivalKind { kNone, kOpenLoop, kPhased, kGoogleTrace };

// "none" is written and read back in JSON, but it is not a process a flag
// or WorkloadSpec::FromName can select.
inline names::Table<ArrivalKind> NameTable(ArrivalKind) {
  static constexpr names::Spelling<ArrivalKind> kNames[] = {
      {ArrivalKind::kNone, "none", false},
      {ArrivalKind::kOpenLoop, "open-loop"},
      {ArrivalKind::kPhased, "phased"},
      {ArrivalKind::kGoogleTrace, "google-trace"},
  };
  return kNames;
}

// The paper's 4-level priority mix (1.2% / 1.7% / 64.6% / 32.2%), shared by
// the google-trace generator and the priority tagger stage.
const std::vector<double>& PaperPriorityMix();

// One named, parameterized tagging stage; stages run in declaration order,
// each with its own Rng(seed).
struct TaggerStage {
  enum class Kind { kLocality, kPriority, kDeadline, kTenant };

  Kind kind = Kind::kLocality;
  uint64_t seed = 0;
  uint32_t num_nodes = 1;    // kLocality
  std::vector<double> mix;   // kPriority (fractions per 1-based level)
  double slack = 3.0;        // kDeadline
  uint32_t jitter_us = 200;  // kDeadline
  uint32_t num_tenants = 2;  // kTenant

  static TaggerStage Locality(uint32_t num_nodes, uint64_t seed);
  static TaggerStage Priority(std::vector<double> mix, uint64_t seed);
  static TaggerStage Deadline(double slack, uint32_t jitter_us, uint64_t seed);
  static TaggerStage Tenant(uint32_t num_tenants, uint64_t seed);

  void Apply(JobStream& stream) const;  // CHECK-fails on an invalid stage
  std::string Validate() const;  // "" when well-formed
  void WriteJson(json::Writer& w) const;
  static bool FromJson(const json::Value& v, TaggerStage* out, std::string* error);
};

inline names::Table<TaggerStage::Kind> NameTable(TaggerStage::Kind) {
  static constexpr names::Spelling<TaggerStage::Kind> kNames[] = {
      {TaggerStage::Kind::kLocality, "locality"},
      {TaggerStage::Kind::kPriority, "priority"},
      {TaggerStage::Kind::kDeadline, "deadline"},
      {TaggerStage::Kind::kTenant, "tenant"},
  };
  return kNames;
}

struct WorkloadSpec {
  ArrivalKind arrival = ArrivalKind::kNone;

  // kOpenLoop / kPhased / kGoogleTrace: mean offered task rate.
  double tasks_per_second = 100000.0;
  // kOpenLoop / kGoogleTrace: submission window.
  TimeNs duration = FromMillis(100);
  // kOpenLoop: batch size of each job.
  size_t tasks_per_job = 1;
  // kPhased: three consecutive phases of this length (Fig. 11).
  TimeNs phase_duration = FromSeconds(30);
  // kGoogleTrace shape: lognormal task durations of this mean and sigma,
  // bounded-Pareto job sizes in [1, max_job_size] with shape burst_alpha,
  // and 0 (untagged) or 4 (the paper's mix) priority levels.
  TimeNs mean_task_duration = FromMicros(500);
  double duration_sigma = 1.2;
  double burst_alpha = 1.3;
  uint32_t max_job_size = 300;
  uint32_t priority_levels = 0;
  // kOpenLoop / kPhased service-time model (kGoogleTrace bakes in its own
  // lognormal durations).
  ServiceTime service = ServiceTime::Fixed(FromMicros(500));

  std::vector<TaggerStage> taggers;
  uint64_t seed = 42;

  bool enabled() const { return arrival != ArrivalKind::kNone; }

  // Generates the stream: the arrival engine, then each tagger in order.
  JobStream Generate() const;

  // Upper bound on the last arrival time (for horizon/warmup validation
  // without generating the stream).
  TimeNs ArrivalEnd() const;

  std::string Validate() const;  // "" when well-formed
  std::string label() const;

  // JSON round-trip: WriteJson/ToJson emit the spec as one object (echoed
  // per sweep point); FromJson parses it back, FromJson(Parse(ToJson()))
  // reproduces an identical spec.
  void WriteJson(json::Writer& w) const;
  std::string ToJson() const;
  static bool FromJson(const json::Value& v, WorkloadSpec* out, std::string* error);

  // A default spec with the named arrival process ("open-loop", "phased",
  // "google-trace").
  static bool FromName(const std::string& name, WorkloadSpec* out,
                       std::string* error = nullptr);
};

}  // namespace draconis::workload

#endif  // DRACONIS_WORKLOAD_WORKLOAD_H_
