// The benchmark's four workloads and the simulated outputs they must
// reproduce.
//
// Each workload is one fixed cluster::RunExperiment configuration, shaped
// like the paper-figure bench it is named after but defined here so that a
// change to bench/ can never silently move the benchmark. README.md records
// why each workload was chosen and which simulator layers it loads.

#ifndef DRACONIS_SIMBENCH_WORKLOADS_H_
#define DRACONIS_SIMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/experiment.h"

namespace draconis::simbench {

// The simulated outputs pinned per workload. Any change to one of these is a
// behaviour change, which a speed-only change must not make.
struct Outputs {
  uint64_t tasks_assigned = 0;   // counters.tasks_assigned
  uint64_t completions = 0;      // client-observed completions in the window
  uint64_t noop_pulls = 0;       // counters.noops_sent
  uint64_t switch_passes = 0;    // switch_counters.passes
  int64_t sched_p50_ns = 0;      // scheduling delay quantiles
  int64_t sched_p99_ns = 0;
  double throughput_tps = 0.0;

  bool operator==(const Outputs&) const = default;
};

// Deterministic per-layer work counts read from an ExperimentResult (the
// per-layer count metrics of README.md). Every field must repeat exactly
// across repetitions of one configuration.
struct LayerCounts {
  uint64_t p4_passes = 0;
  uint64_t p4_recirculations = 0;
  uint64_t p4_recirc_drops = 0;
  uint64_t core_noops_sent = 0;
  uint64_t core_tasks_assigned = 0;
  uint64_t cluster_tasks_completed = 0;
  uint64_t cluster_timeout_resubmissions = 0;
  uint64_t net_packets_dropped = 0;
  uint64_t topology_summary_packets = 0;
  uint64_t topology_cross_rack_submissions = 0;
  uint64_t topology_home_submissions = 0;
  uint64_t baselines_parked_requests = 0;

  bool operator==(const LayerCounts&) const = default;

  // assigned / passes; 0 when the run has no switch pipeline.
  double useful_pass_frac() const;
  // cross / (home + cross); 0 on single-rack runs.
  double cross_rack_frac() const;
};

struct Workload {
  const char* name;
  uint64_t pinned_seed;
  // The configuration for `seed` (the workload generator and the simulator
  // both draw from it).
  cluster::ExperimentConfig (*make_config)(uint64_t seed);
  // Outputs of the pinned seed, measured on the commit that introduced the
  // benchmark.
  Outputs pins;
};

// All workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& Workloads();

// nullptr when `name` names no workload.
const Workload* FindWorkload(const std::string& name);

Outputs ExtractOutputs(const cluster::ExperimentResult& result);
LayerCounts ExtractCounts(const cluster::ExperimentResult& result);

// One "field: got X, pinned Y" line per differing field; empty when equal.
std::vector<std::string> DiffOutputs(const Outputs& got, const Outputs& pinned);

// Structural checks that hold on every seed (the pins cover only the pinned
// one): the run did work, and no task completed more often than it was
// assigned. One line per violated check; empty when all hold.
std::vector<std::string> CheckInvariants(const Outputs& outputs, const LayerCounts& counts);

}  // namespace draconis::simbench

#endif  // DRACONIS_SIMBENCH_WORKLOADS_H_
