// DAG straggler hedging (docs/dag.md) — not a paper figure. Runs the same
// fan-out/fan-in DAG stream twice per scheduler kind, with and without
// straggler hedging, under Pareto per-task service times: the regime where a
// single elephant draw on one stage holds the whole job's fan-in hostage.
// Hedging re-issues the straggler through the §8.3 suppression path with a
// fresh service draw (the straggler is the placement, not the task), so the
// p99 job makespan should drop while the wasted-work fraction reports what
// the insurance cost.
//
// The sweep is registry-driven (every DeploymentInfo kind, then
// RackSched-EDF, shows up in both series) and publishes BENCH_dag.json in CI. The hedging-off Draconis point
// is additionally run twice back to back and the reports compared
// byte-for-byte (extra.repeat_identical): hedging off draws zero hedge
// randomness, so the repeat must be bit-identical.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "dag/dag_flags.h"
#include "dag/frontier_driver.h"

using namespace draconis;
using namespace draconis::bench;
using namespace draconis::cluster;

namespace {

// Base cluster config for one point; the DAG workload rides beside it (it is
// not an ExperimentConfig field — each point's dag::DagDriver carries it).
ExperimentConfig DagPointConfig(SchedulerKind kind, TimeNs horizon) {
  ExperimentConfig config;
  config.scheduler = kind;
  config.num_workers = kWorkers;
  config.executors_per_worker = kExecutorsPerWorker;
  config.num_clients = 4;
  config.warmup = RunWarmup();
  config.horizon = horizon;
  config.jbsq_k = 3;
  // Heavy-tailed services make resubmission storms cheap to trigger; stay at
  // the top of the paper's "typical 5-10x" client-timeout band so the §8.3
  // timeout path stays out of hedging's way.
  config.timeout_multiplier = 10.0;
  config.seed = 42;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  SweepRunner runner("DAG hedging",
                     "p99 job makespan with and without straggler hedging, all kinds");
  std::string scheduler = "all";
  runner.parser().AddChoice("scheduler", &scheduler, SchedulerChoices(),
                            "restrict the sweep to one scheduler kind");
  dag::DagFlags dag_flags;
  dag_flags.Register(&runner.parser());
  runner.ParseFlagsOrExit(argc, argv);

  dag::DagWorkloadSpec base;
  // Pareto per-task services (matching bench/fig_tail_latency.cc): the rare
  // elephant draw is the straggler hedging insures against.
  base.service = workload::ServiceTime::Pareto(FromMicros(250), 1.3);
  dag::HedgePolicy hedged;
  hedged.enabled = true;
  std::string flag_error;
  if (!dag_flags.Apply(&base, &hedged, &flag_error)) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    return 2;
  }
  base.duration = runner.horizon();
  dag::HedgePolicy unhedged = hedged;
  unhedged.enabled = false;

  // Moderate load: hedging needs idle capacity for the duplicate to land on;
  // near saturation the observed-latency quantile inflates and hedges both
  // rarify and lose their race.
  std::vector<double> utilizations = {0.4, 0.6, 0.8};
  if (Quick()) {
    utilizations = {0.6};
  }

  sweep::SweepSpec spec;
  spec.name = "fig_dag_hedging";
  spec.title = "p99 job makespan with and without straggler hedging, all kinds";
  spec.axis = {"offered load", "fraction of capacity"};
  const std::vector<SweepSystem> systems = RegistrySystems(scheduler);
  for (const SweepSystem& system : systems) {
    for (const bool hedge_on : {false, true}) {
      for (double util : utilizations) {
        dag::DagWorkloadSpec workload = base;
        workload.jobs_per_second =
            UtilToTps(util, workload.MeanTaskService()) /
            static_cast<double>(workload.TasksPerJob());
        const dag::HedgePolicy& policy = hedge_on ? hedged : unhedged;
        sweep::SweepPoint point;
        point.series = std::string(system.name) + (hedge_on ? " +hedge" : " no-hedge");
        point.x = util;
        char label[96];
        std::snprintf(label, sizeof(label), "%s@%.0f%%%s", system.flag, 100.0 * util,
                      hedge_on ? "+hedge" : "");
        point.label = label;
        point.config = DagPointConfig(system.kind, runner.horizon());
        point.config.racksched_intra_policy = system.intra;
        point.run = [workload, policy](const ExperimentConfig& config) {
          dag::DagDriver driver(workload, policy);
          return RunExperiment(config, driver);
        };
        spec.points.push_back(std::move(point));
      }
    }
  }

  // Determinism pin: a hedging-off run consumes zero hedge randomness, so
  // repeating one point back to back must reproduce the report byte for
  // byte. Pinned on the first point's kind (Draconis in the full sweep).
  bool repeat_identical = true;
  if (!spec.points.empty()) {
    const sweep::SweepPoint& pin = spec.points.front();
    const std::string once = sweep::ToJson(pin.run(pin.config));
    const std::string twice = sweep::ToJson(pin.run(pin.config));
    repeat_identical = once == twice;
  }

  const std::vector<sweep::SweepPointResult> results =
      runner.Run(spec, [repeat_identical](std::vector<sweep::SweepPointResult>& rs) {
        for (sweep::SweepPointResult& r : rs) {
          const cluster::DagRunStats& dag = r.result.dag;
          r.scalars["jobs_completed"] = static_cast<double>(dag.jobs_completed);
          r.scalars["hedges_launched"] = static_cast<double>(dag.hedges_launched);
          r.scalars["hedge_wins"] = static_cast<double>(dag.hedge_wins);
          r.scalars["replicas_cancelled"] = static_cast<double>(dag.replicas_cancelled);
          r.scalars["wasted_work_fraction"] = dag.wasted_work_fraction;
          r.scalars["repeat_identical"] = repeat_identical ? 1.0 : 0.0;
          if (dag.makespan.count() > 0) {
            r.scalars["makespan_p50_us"] =
                static_cast<double>(dag.makespan.Percentile(0.50)) / 1000.0;
            r.scalars["makespan_p99_us"] =
                static_cast<double>(dag.makespan.Percentile(0.99)) / 1000.0;
          }
          if (dag.stretch_milli.count() > 0) {
            r.scalars["stretch_p50"] =
                static_cast<double>(dag.stretch_milli.Percentile(0.50)) / 1000.0;
            r.scalars["stretch_p99"] =
                static_cast<double>(dag.stretch_milli.Percentile(0.99)) / 1000.0;
          }
        }
      });

  for (double util : utilizations) {
    std::printf("\n--- offered load %.0f%% of capacity (%s, %ux%u) ---\n", 100.0 * util,
                names::Name(base.shape), base.depth, base.width);
    std::printf("%-34s %10s %10s %8s %8s %8s\n", "system", "p50 mkspan", "p99 mkspan",
                "hedges", "wins", "waste%");
    size_t i = 0;
    for (const SweepSystem& system : systems) {
      for (const bool hedge_on : {false, true}) {
        for (size_t col = 0; col < utilizations.size(); ++col, ++i) {
          if (utilizations[col] != util) {
            continue;
          }
          const sweep::SweepPointResult& r = results[i];
          const cluster::DagRunStats& dag = r.result.dag;
          const std::string name =
              std::string(system.name) + (hedge_on ? " +hedge" : "");
          std::printf("%-34s %10s %10s %8llu %8llu %7.2f%%\n", name.c_str(),
                      dag.makespan.count() > 0
                          ? FormatDuration(dag.makespan.Percentile(0.50)).c_str()
                          : "(none)",
                      P99OrNone(dag.makespan).c_str(),
                      static_cast<unsigned long long>(dag.hedges_launched),
                      static_cast<unsigned long long>(dag.hedge_wins),
                      100.0 * dag.wasted_work_fraction);
        }
      }
    }
  }

  std::printf(
      "\nShape check: the +hedge series cuts the p99 job makespan (the fan-in no\n"
      "longer waits out the elephant service draw) for a modest wasted-work\n"
      "fraction; hedging-off repeats are bit-identical (repeat_identical=%d).\n",
      repeat_identical ? 1 : 0);
  return repeat_identical ? 0 : 1;
}
