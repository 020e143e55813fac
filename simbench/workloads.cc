#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <type_traits>

#include "common/time.h"
#include "topology/topology.h"
#include "workload/service_time.h"

namespace draconis::simbench {

namespace {

using cluster::ExperimentConfig;
using cluster::SchedulerKind;

// The paper testbed (10 workers x 16 executors, 4 clients) under an
// open-loop Poisson stream of 10-task jobs of fixed 500 us tasks, 5 ms of
// warm-up: the fig05a shape at one load point.
ExperimentConfig PaperTestbed(SchedulerKind kind, double tps, TimeNs horizon, uint64_t seed) {
  ExperimentConfig config;
  config.scheduler = kind;
  config.num_workers = 10;
  config.executors_per_worker = 16;
  config.num_clients = 4;
  config.warmup = FromMillis(5);
  config.horizon = horizon;
  config.max_tasks_per_packet = 1;
  config.timeout_multiplier = 5.0;
  config.seed = seed;
  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = tps;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 10;
  config.workload.service = workload::ServiceTime::Fixed(FromMicros(500));
  config.workload.seed = seed;
  return config;
}

// Fig. 5a headline point: Draconis at 250 ktps, single-task packets, over
// fig05a's 40 ms horizon.
ExperimentConfig Latency500us(uint64_t seed) {
  return PaperTestbed(SchedulerKind::kDraconis, 250e3, FromMillis(40), seed);
}

// Fig. 5b saturation point: 208 no-op executors on 13 machines, fed at 98%
// of their pull rate (280 k pulls/s each) by 32 clients, over fig05b's
// 20 ms horizon.
ExperimentConfig NoopPull208(uint64_t seed) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kDraconis;
  config.num_workers = 13;
  config.executors_per_worker = 16;
  config.num_clients = 32;
  config.noop_executors = true;
  config.warmup = FromMillis(5);
  config.horizon = FromMillis(20);
  config.max_tasks_per_packet = 1;
  config.seed = seed;
  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = 0.98 * 280e3 * 208;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 16;
  config.workload.service = workload::ServiceTime::Fixed(0);
  config.workload.seed = seed;
  return config;
}

// Draconis-DPDK-Server at 290 ktps with each 10-task job in one MTU-sized
// packet (max_tasks_per_packet = 0 picks the kind's batch default). The
// 200 ms horizon gives each repetition ~58k tasks; the server simulates so
// cheaply that a fig05a-length run would be too short to time.
ExperimentConfig ServerBatch(uint64_t seed) {
  ExperimentConfig config =
      PaperTestbed(SchedulerKind::kDraconisDpdkServer, 290e3, FromMillis(200), seed);
  config.max_tasks_per_packet = 0;
  return config;
}

// fig_scalability_racks' balanced no-op series: racks of 420 x 16 no-op
// executors at 3 k tasks/s each, clients homed round-robin, 2 ms simulated.
constexpr size_t kRacks = 2;

ExperimentConfig RacksBalanced(uint64_t seed) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kDraconis;
  config.cluster = topology::ClusterTopology::Uniform(kRacks, 420, 16);
  config.cluster.client_homing = topology::ClientHoming::kRoundRobin;
  const double offered = 3000.0 * static_cast<double>(kRacks * 420 * 16);
  const size_t clients_per_rack = std::max<size_t>(
      4, static_cast<size_t>(offered / static_cast<double>(kRacks) / 1e6) + 1);
  config.num_clients = clients_per_rack * kRacks;
  config.noop_executors = true;
  config.warmup = FromMicros(500);
  config.horizon = FromMillis(2);
  config.drain_margin = FromMicros(50);
  config.max_tasks_per_packet = 1;
  config.seed = seed;
  config.executor_template.max_retry = FromMicros(64);
  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = offered;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 1;
  config.workload.service = workload::ServiceTime::Fixed(0);
  config.workload.seed = seed;
  return config;
}

template <typename T>
void AddDiff(std::vector<std::string>& out, const char* field, T got, T pinned) {
  if (got == pinned) {
    return;
  }
  char line[160];
  if constexpr (std::is_floating_point_v<T>) {
    std::snprintf(line, sizeof(line), "%s: got %.17g, pinned %.17g", field, got, pinned);
  } else if constexpr (std::is_signed_v<T>) {
    std::snprintf(line, sizeof(line), "%s: got %" PRId64 ", pinned %" PRId64, field,
                  static_cast<int64_t>(got), static_cast<int64_t>(pinned));
  } else {
    std::snprintf(line, sizeof(line), "%s: got %" PRIu64 ", pinned %" PRIu64, field,
                  static_cast<uint64_t>(got), static_cast<uint64_t>(pinned));
  }
  out.emplace_back(line);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

double LayerCounts::useful_pass_frac() const {
  return Ratio(core_tasks_assigned, p4_passes);
}

double LayerCounts::cross_rack_frac() const {
  return Ratio(topology_cross_rack_submissions,
               topology_home_submissions + topology_cross_rack_submissions);
}

const std::vector<Workload>& Workloads() {
  // No-op workloads complete nothing client-side, so their completions and
  // scheduling-delay pins are 0; server-batch has no switch pipeline.
  static const std::vector<Workload> workloads = {
      {"latency-500us", 42, Latency500us,
       Outputs{.tasks_assigned = 9680,
               .completions = 8450,
               .noop_pulls = 868557,
               .switch_passes = 887917,
               .sched_p50_ns = 4863,
               .sched_p99_ns = 253951,
               .throughput_tps = 241428.57142857139}},
      {"noop-pull-208", 7, NoopPull208,
       Outputs{.tasks_assigned = 1143488,
               .completions = 0,
               .noop_pulls = 1065675,
               .switch_passes = 3352651,
               .sched_p50_ns = 0,
               .sched_p99_ns = 0,
               .throughput_tps = 57201466.666666672}},
      {"server-batch", 42, ServerBatch,
       Outputs{.tasks_assigned = 58250,
               .completions = 56810,
               .noop_pulls = 0,
               .switch_passes = 0,
               .sched_p50_ns = 92159,
               .sched_p99_ns = 540671,
               .throughput_tps = 291333.33333333331}},
      {"racks-balanced", 97, RacksBalanced,
       Outputs{.tasks_assigned = 81971,
               .completions = 0,
               .noop_pulls = 685109,
               .switch_passes = 849051,
               .sched_p50_ns = 0,
               .sched_p99_ns = 0,
               .throughput_tps = 41028666.666666664}},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

Outputs ExtractOutputs(const cluster::ExperimentResult& result) {
  Outputs out;
  out.tasks_assigned = result.counters.tasks_assigned;
  out.completions = result.metrics->tasks_completed();
  out.noop_pulls = result.counters.noops_sent;
  out.switch_passes = result.switch_counters.passes;
  out.sched_p50_ns = result.metrics->sched_delay().Percentile(0.50);
  out.sched_p99_ns = result.metrics->sched_delay().Percentile(0.99);
  out.throughput_tps = result.throughput_tps;
  return out;
}

LayerCounts ExtractCounts(const cluster::ExperimentResult& result) {
  LayerCounts c;
  c.p4_passes = result.switch_counters.passes;
  c.p4_recirculations = result.switch_counters.recirculations;
  c.p4_recirc_drops = result.switch_counters.recirc_drops;
  c.core_noops_sent = result.counters.noops_sent;
  c.core_tasks_assigned = result.counters.tasks_assigned;
  c.cluster_tasks_completed = result.metrics->tasks_completed();
  c.cluster_timeout_resubmissions = result.metrics->timeout_resubmissions();
  c.net_packets_dropped = result.recovery.packets_dropped;
  c.topology_summary_packets = result.summary_packets;
  c.topology_cross_rack_submissions = result.cross_rack_submissions;
  c.topology_home_submissions = result.home_submissions;
  c.baselines_parked_requests = result.counters.parked_requests;
  return c;
}

std::vector<std::string> DiffOutputs(const Outputs& got, const Outputs& pinned) {
  std::vector<std::string> out;
  AddDiff(out, "tasks_assigned", got.tasks_assigned, pinned.tasks_assigned);
  AddDiff(out, "completions", got.completions, pinned.completions);
  AddDiff(out, "noop_pulls", got.noop_pulls, pinned.noop_pulls);
  AddDiff(out, "switch_passes", got.switch_passes, pinned.switch_passes);
  AddDiff(out, "sched_p50_ns", got.sched_p50_ns, pinned.sched_p50_ns);
  AddDiff(out, "sched_p99_ns", got.sched_p99_ns, pinned.sched_p99_ns);
  AddDiff(out, "throughput_tps", got.throughput_tps, pinned.throughput_tps);
  return out;
}

std::vector<std::string> CheckInvariants(const Outputs& outputs, const LayerCounts& counts) {
  std::vector<std::string> out;
  if (outputs.tasks_assigned == 0) {
    out.emplace_back("no task was assigned");
  }
  if (!(outputs.throughput_tps > 0.0)) {
    out.emplace_back("throughput_tps is not positive");
  }
  if (outputs.completions > outputs.tasks_assigned) {
    out.emplace_back("more completions than assignments");
  }
  if (counts.p4_recirculations > counts.p4_passes) {
    out.emplace_back("more recirculations than switch passes");
  }
  return out;
}

}  // namespace draconis::simbench
