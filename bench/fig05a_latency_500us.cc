// Reproduces paper Fig. 5a: throughput vs p99 scheduling delay for all
// scheduling alternatives, 500 us fixed tasks on the 160-executor testbed.
//
// Paper headline: Draconis p99 = 4.7 us — 3x / 20x / 120x / 200x lower than
// RackSched / Draconis-DPDK-Server / R2P2 / Sparrow; socket-based systems
// cannot exceed ~160 ktps.

#include <cstdio>
#include <vector>

#include "bench/common.h"

using namespace draconis;
using namespace draconis::bench;
using namespace draconis::cluster;

namespace {

struct System {
  const char* name;
  SchedulerKind kind;
  size_t num_schedulers = 1;
  baselines::IntraNodePolicy intra = baselines::IntraNodePolicy::kFcfs;
};

}  // namespace

int main(int argc, char** argv) {
  SweepRunner runner("Figure 5a", "throughput vs p99 scheduling delay, 500 us tasks");
  std::string scheduler = "all";
  runner.parser().AddChoice("scheduler", &scheduler, SchedulerChoices(),
                            "restrict the sweep to one scheduler kind");
  runner.ParseFlagsOrExit(argc, argv);

  const std::vector<System> all_systems = {
      {"Draconis", SchedulerKind::kDraconis},
      {"RackSched", SchedulerKind::kRackSched},
      {"R2P2-3", SchedulerKind::kR2P2},
      {"Draconis-DPDK-Server", SchedulerKind::kDraconisDpdkServer},
      {"Draconis-Socket-Server", SchedulerKind::kDraconisSocketServer},
      {"1 Sparrow", SchedulerKind::kSparrow, 1},
      {"2 Sparrow", SchedulerKind::kSparrow, 2},
      {"Malcolm", SchedulerKind::kMalcolm},
      {"RackSched-EDF", SchedulerKind::kRackSched, 1, baselines::IntraNodePolicy::kEdf},
  };
  std::vector<System> systems;
  for (const System& system : all_systems) {
    if (KeepScheduler(scheduler, system.kind)) {
      systems.push_back(system);
    }
  }
  std::vector<double> loads_ktps = {50, 100, 150, 200, 250, 290};
  if (Quick()) {
    loads_ktps = {100, 250};
  }

  const workload::ServiceTime service = workload::ServiceTime::Fixed(FromMicros(500));

  sweep::SweepSpec spec;
  spec.name = "fig05a";
  spec.title = "throughput vs p99 scheduling delay, 500 us tasks";
  spec.axis = {"offered load", "ktasks/s"};
  for (const System& system : systems) {
    for (double load : loads_ktps) {
      sweep::SweepPoint point;
      point.series = system.name;
      point.x = load;
      char label[64];
      std::snprintf(label, sizeof(label), "%s@%.0fk", system.name, load);
      point.label = label;
      point.config =
          SyntheticConfig(system.kind, load * 1000.0, service, 42, 10, runner.horizon());
      point.config.num_schedulers = system.num_schedulers;
      point.config.racksched_intra_policy = system.intra;
      point.config.jbsq_k = 3;
      spec.points.push_back(std::move(point));
    }
  }

  const std::vector<sweep::SweepPointResult> results = runner.Run(spec);

  std::printf("%-24s", "p99 sched delay");
  for (double load : loads_ktps) {
    std::printf(" %9.0fk", load);
  }
  std::printf("   (offered tasks/s)\n");

  size_t i = 0;
  for (const System& system : systems) {
    std::printf("%-24s", system.name);
    for (size_t col = 0; col < loads_ktps.size(); ++col, ++i) {
      std::printf(" %10s", P99OrNone(results[i].result.metrics->sched_delay()).c_str());
    }
    std::printf("\n");
  }

  std::printf(
      "\nShape check: Draconis lowest and flat; RackSched a few-x higher (intra-node\n"
      "dispatch); server schedulers blow up as they saturate; R2P2 pinned near the\n"
      "500 us service time (node-level blocking); Sparrow worst overall.\n");
  return 0;
}
