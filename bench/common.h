// Shared helpers for the figure-reproduction benches.
//
// Every bench binary reproduces one table or figure from the paper: it
// builds a sweep::SweepSpec for the figure's points (paper scale: 10 workers
// x 16 executors unless the experiment says otherwise), runs it through
// SweepRunner — which owns the standard flags (--parallelism, --json,
// --csv-dir, --horizon, --progress) — and prints the series as an aligned
// text table from the ordered results.
//
// Environment:
//   DRACONIS_BENCH_QUICK=1   shrink run horizons / sweep points (dev mode)

#ifndef DRACONIS_BENCH_COMMON_H_
#define DRACONIS_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "baselines/intra_node_policy.h"
#include "cluster/deployment.h"
#include "cluster/experiment.h"
#include "common/flags.h"
#include "common/names.h"
#include "core/rank_function.h"
#include "fault/plan.h"
#include "sim/event_queue.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "trace/export.h"
#include "workload/workload.h"

namespace draconis::bench {

inline bool Quick() {
  const char* env = std::getenv("DRACONIS_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

// Measurement horizon per run.
inline TimeNs RunHorizon() { return Quick() ? FromMillis(15) : FromMillis(40); }
inline TimeNs RunWarmup() { return FromMillis(5); }

// The paper's testbed shape.
inline constexpr size_t kWorkers = 10;
inline constexpr size_t kExecutorsPerWorker = 16;
inline constexpr size_t kTotalExecutors = kWorkers * kExecutorsPerWorker;

// Tasks/s that produce `util` cluster utilization for a mean service time.
inline double UtilToTps(double util, TimeNs mean_service) {
  return util * static_cast<double>(kTotalExecutors) / ToSeconds(mean_service);
}

// A paper-scale cluster running an open-loop synthetic workload. The paper's
// clients "submit jobs with configurable sizes"; jobs default to 10-task
// batches submitted as trains of single-task packets (see EXPERIMENTS.md) —
// the burstiness behind R2P2's node-level blocking and drops.
// `horizon` = 0 uses RunHorizon(); benches pass SweepRunner::horizon() so
// --horizon reaches every point.
inline cluster::ExperimentConfig SyntheticConfig(cluster::SchedulerKind kind, double tps,
                                                 const workload::ServiceTime& service,
                                                 uint64_t seed = 42,
                                                 size_t tasks_per_job = 10,
                                                 TimeNs horizon = 0) {
  cluster::ExperimentConfig config;
  config.scheduler = kind;
  config.num_workers = kWorkers;
  config.executors_per_worker = kExecutorsPerWorker;
  config.num_clients = 4;
  config.warmup = RunWarmup();
  config.horizon = horizon > 0 ? horizon : RunHorizon();
  config.max_tasks_per_packet = 1;
  // The paper sets client timeouts to 2x the execution time and notes that
  // typical clients use 5-10x. Our simulated baselines' tails sit closer to
  // the timeout than the authors' testbed did, and at 2-3x R2P2-3 collapses
  // into a resubmission spiral the paper's R2P2-3 did not exhibit — so the
  // suite runs at the bottom of the typical band.
  config.timeout_multiplier = 5.0;
  config.seed = seed;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = tps;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = tasks_per_job;
  config.workload.service = service;
  config.workload.seed = seed;
  return config;
}

// p99 of a histogram, or "(none)" when nothing completed in the window (a
// saturated scheduler).
inline std::string P99OrNone(const stats::Histogram& h) {
  return h.count() == 0 ? "(none)" : FormatDuration(h.Percentile(0.99));
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("==========================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(simulated reproduction; see EXPERIMENTS.md for paper-vs-measured notes)\n");
  std::printf("==========================================================================\n");
}

// Prints a CDF as a fixed set of quantiles, one line per system.
inline void PrintQuantileRow(const char* name, const stats::Histogram& h) {
  std::printf("%-24s %10s %10s %10s %10s %10s %10s\n", name,
              FormatDuration(h.Percentile(0.50)).c_str(),
              FormatDuration(h.Percentile(0.66)).c_str(),
              FormatDuration(h.Percentile(0.90)).c_str(),
              FormatDuration(h.Percentile(0.95)).c_str(),
              FormatDuration(h.Percentile(0.99)).c_str(),
              FormatDuration(h.Percentile(0.999)).c_str());
}

inline void PrintQuantileHeader(const char* label) {
  std::printf("%-24s %10s %10s %10s %10s %10s %10s\n", label, "p50", "p66", "p90", "p95",
              "p99", "p99.9");
}

// Valid values for a --scheduler flag (AddChoice); "all" disables filtering.
// The kind names come from the DeploymentRegistry, so a newly registered
// scheduler is selectable in every bench without touching this file.
inline std::vector<std::string> SchedulerChoices() {
  std::vector<std::string> choices = {"all"};
  for (const std::string& flag : cluster::DeploymentRegistry::Get().FlagChoices()) {
    choices.push_back(flag);
  }
  return choices;
}

// True when a --scheduler choice selects systems of this kind.
inline bool KeepScheduler(const std::string& choice, cluster::SchedulerKind kind) {
  if (choice == "all") {
    return true;
  }
  cluster::SchedulerKind want;
  return cluster::SchedulerKindFromName(choice, &want) && want == kind;
}

// One series of a registry-driven sweep.
struct SweepSystem {
  const char* name;  // series name
  const char* flag;  // point-label prefix
  cluster::SchedulerKind kind;
  baselines::IntraNodePolicy intra = baselines::IntraNodePolicy::kFcfs;
};

// The registered kinds a --scheduler choice keeps, in registration order,
// then RackSched-EDF — RackSched with the EDF intra-node dispatcher, a
// racksched_intra_policy setting rather than a kind — when it keeps
// RackSched.
inline std::vector<SweepSystem> RegistrySystems(const std::string& choice) {
  std::vector<SweepSystem> systems;
  for (const cluster::DeploymentInfo& info : cluster::DeploymentRegistry::Get().all()) {
    if (KeepScheduler(choice, info.kind)) {
      systems.push_back({info.canonical_name, info.flag_name, info.kind});
    }
  }
  if (KeepScheduler(choice, cluster::SchedulerKind::kRackSched)) {
    systems.push_back({"RackSched-EDF", "racksched-edf", cluster::SchedulerKind::kRackSched,
                       baselines::IntraNodePolicy::kEdf});
  }
  return systems;
}

// Drives one bench binary: owns the flag parser with the standard sweep
// flags, executes the spec via sweep::RunSweep, and writes the --json /
// --csv-dir reports. Bench-specific flags register through parser() before
// ParseFlagsOrExit.
class SweepRunner {
 public:
  // Benches whose run window is not a plain horizon (phased workloads, the
  // static capacity table) pass kNoHorizonFlag so --horizon is not offered.
  static constexpr TimeNs kNoHorizonFlag = -1;

  // `default_horizon` = 0 uses RunHorizon(); benches whose paper setup runs a
  // different window (e.g. the no-op throughput test) pass their own.
  SweepRunner(const std::string& figure, const std::string& description,
              TimeNs default_horizon = 0)
      : figure_(figure),
        description_(description),
        parser_(figure + " — " + description) {
    if (default_horizon > 0) {
      horizon_ = default_horizon;
    }
    parser_.AddInt64("parallelism", &parallelism_,
                     "sweep worker threads (0 = all hardware threads, 1 = serial)");
    parser_.AddString("json", &json_path_, "write the sweep report as JSON to this path");
    parser_.AddString("csv-dir", &csv_dir_,
                      "dump per-point latency CDFs as CSVs into this directory");
    parser_.AddBool("progress", &progress_, "print per-point progress to stderr");
    if (default_horizon != kNoHorizonFlag) {
      parser_.AddDuration("horizon", &horizon_, "measurement horizon per experiment point");
    }
    parser_.AddBool("trace", &trace_,
                    "record sampled task-lifecycle traces per point (docs/observability.md)");
    parser_.AddInt64("trace-sample", &trace_sample_,
                     "trace 1-in-N tasks by deterministic id hash (1 = every task)");
    parser_.AddString("trace-dir", &trace_dir_,
                      "directory for <bench>_<point>_{trace,attribution}.json outputs");
    parser_.AddString("fault-plan", &fault_plan_path_,
                      "apply this JSON fault plan to every sweep point "
                      "(docs/fault_injection.md)");
    parser_.AddChoice("switch-policy", &switch_policy_, names::Names<core::SwitchPolicy>(),
                      "switch queueing discipline for every point (docs/pifo.md); "
                      "non-fifo values need a PIFO-capable kind — combine with "
                      "--scheduler=draconis");
    parser_.AddChoice("sim-queue", &sim_queue_, names::Names<sim::QueueBackend>(),
                      "event-queue backend for every point's simulator "
                      "(docs/simulation.md); both produce bit-identical runs");
    parser_.AddChoice("workload", &workload_override_, names::Names<workload::ArrivalKind>(),
                      "arrival process override for every spec-driven point "
                      "(docs/workloads.md)");
    std::string service_doc =
        "service-time model override for every spec-driven point, e.g. ";
    for (size_t i = 0; i < workload::ServiceTime::NameTemplates().size(); ++i) {
      service_doc += (i > 0 ? " | " : "") + workload::ServiceTime::NameTemplates()[i];
    }
    parser_.AddString("service-time", &service_time_override_, service_doc);
    parser_.AddDouble("heavy-tail-prob", &heavy_tail_prob_,
                      "wrap every point's service-time model: inflate this fraction of "
                      "samples (0 disables; docs/workloads.md)");
    parser_.AddDouble("heavy-tail-mult", &heavy_tail_mult_,
                      "multiplier applied to the inflated heavy-tail samples");
  }

  flags::Parser& parser() { return parser_; }
  TimeNs horizon() const { return horizon_; }
  bool has_fault_plan() const { return !fault_plan_path_.empty(); }

  // Loads the --fault-plan file (exits on parse errors) and disowns it, so
  // Run() will not auto-apply it to every point — for benches that assign
  // the plan to their own subset of points (fig14's failover series keeps a
  // no-fault baseline series next to it). Returns false when the flag was
  // not passed.
  bool TakeFaultPlan(fault::FaultPlan* out) {
    if (!LoadFaultPlan(out)) {
      return false;
    }
    fault_plan_path_.clear();
    return true;
  }

  void ParseFlagsOrExit(int argc, const char* const* argv) {
    std::string error;
    if (!parser_.Parse(argc, argv, &error)) {
      std::fprintf(stderr, "%s\n\n%s", error.c_str(), parser_.Usage().c_str());
      std::exit(2);
    }
    if (parser_.help_requested()) {
      std::fputs(parser_.Usage().c_str(), stdout);
      std::exit(0);
    }
  }

  // Prints the figure header, runs the sweep, and writes the --json /
  // --csv-dir outputs. `annotate` (optional) fills per-point scalars before
  // the report is rendered. Results come back in point order.
  std::vector<sweep::SweepPointResult> Run(
      const sweep::SweepSpec& spec,
      const std::function<void(std::vector<sweep::SweepPointResult>&)>& annotate = nullptr) {
    PrintHeader(figure_.c_str(), description_.c_str());
    // Every flag override applies to every point in one pass, then each
    // point is validated once.
    sweep::SweepSpec active = spec;
    workload::ArrivalKind arrival = workload::ArrivalKind::kNone;
    names::Parse(workload_override_, &arrival);  // choices pre-validated; "" keeps kNone
    workload::ServiceTime service = workload::ServiceTime::Fixed(FromMicros(500));
    std::string error;
    if (!service_time_override_.empty() &&
        !workload::ServiceTime::FromName(service_time_override_, &service, &error)) {
      std::fprintf(stderr, "--service-time: %s\n", error.c_str());
      std::exit(2);
    }
    // Checked whether or not another override is active: an out-of-range
    // value is an error, not a silent no-op.
    if (!(heavy_tail_prob_ >= 0.0 && heavy_tail_prob_ <= 1.0)) {  // NaN fails too
      std::fprintf(stderr, "--heavy-tail-prob must be in [0, 1]\n");
      std::exit(2);
    }
    if (!(heavy_tail_mult_ > 0.0)) {
      std::fprintf(stderr, "--heavy-tail-mult must be > 0\n");
      std::exit(2);
    }
    sim::QueueBackend backend = sim::kDefaultQueueBackend;
    names::Parse(sim_queue_, &backend);
    core::SwitchPolicy switch_policy = core::SwitchPolicy::kFifo;
    names::Parse(switch_policy_, &switch_policy);
    fault::FaultPlan plan;
    const bool apply_plan = LoadFaultPlan(&plan);
    for (sweep::SweepPoint& point : active.points) {
      cluster::ExperimentConfig& config = point.config;
      // --workload / --service-time / --heavy-tail-*: reshape every point
      // that runs on a declarative WorkloadSpec (docs/workloads.md); points
      // without one (DAG runs) are left alone.
      if (config.workload.enabled()) {
        if (arrival != workload::ArrivalKind::kNone) {
          config.workload.arrival = arrival;
        }
        if (!service_time_override_.empty()) {
          config.workload.service = service;
        }
        if (heavy_tail_prob_ > 0.0) {
          config.workload.service = workload::ServiceTime::HeavyTail(
              config.workload.service, heavy_tail_prob_, heavy_tail_mult_);
        }
      }
      // --sim-queue: results are bit-identical across backends (the (time,
      // seq) contract); the flag exists for cross-checking exactly that and
      // for timing comparisons.
      if (backend != sim::kDefaultQueueBackend) {
        config.sim_queue = backend;
      }
      // --switch-policy: points whose scheduler kind cannot host a PIFO fail
      // validation, so a mixed-kind sweep needs a --scheduler filter first.
      if (switch_policy != core::SwitchPolicy::kFifo) {
        config.switch_policy = switch_policy;
      }
      // --trace: sampling is a pure hash of each task id, so traced results
      // are bit-identical to untraced ones (tests/determinism_test.cc).
      if (trace_) {
        config.trace.enabled = true;
        config.trace.sample_period =
            trace_sample_ <= 0 ? 1 : static_cast<uint64_t>(trace_sample_);
      }
      // --fault-plan: the same deterministic fault timeline on every point.
      if (apply_plan) {
        config.fault_plan = plan;
      }
      const std::string invalid = config.Validate();
      if (!invalid.empty()) {
        std::fprintf(stderr, "point %s: %s\n", point.label.c_str(), invalid.c_str());
        std::exit(2);
      }
    }
    sweep::SweepOptions options;
    options.parallelism = parallelism_ < 0 ? 1 : static_cast<size_t>(parallelism_);
    if (progress_) {
      options.on_progress = [](size_t completed, size_t total,
                               const sweep::SweepPointResult& done) {
        std::fprintf(stderr, "[%zu/%zu] %s\n", completed, total, done.label.c_str());
      };
    }
    std::vector<sweep::SweepPointResult> results = sweep::RunSweep(active, options);
    if (annotate) {
      annotate(results);
    }
    if (trace_) {
      for (const sweep::SweepPointResult& r : results) {
        if (r.result.trace == nullptr) {
          continue;
        }
        const std::string dir = trace_dir_.empty() ? std::string(".") : trace_dir_;
        const std::string base =
            dir + "/" + spec.name + "_" + trace::SanitizeForFilename(r.label);
        const std::string tag = spec.name + "/" + r.label;
        trace::WriteChromeTraceFile(base + "_trace.json", *r.result.trace, tag);
        const trace::AttributionReport attribution = trace::BuildAttribution(*r.result.trace);
        trace::WriteAttributionFile(base + "_attribution.json", attribution, *r.result.trace,
                                    tag);
        std::fprintf(stderr, "trace: %s_{trace,attribution}.json\n", base.c_str());
      }
    }
    sweep::ReportOptions report;
    report.parallelism = sweep::EffectiveParallelism(options.parallelism, spec.points.size());
    report.quick = Quick();
    // Report against active, not spec: per-point flag overrides
    // (--sim-queue, --switch-policy, --fault-plan) must be visible in the
    // recorded configs.
    if (!json_path_.empty()) {
      sweep::WriteJsonFile(json_path_, active, results, report);
    }
    if (!csv_dir_.empty()) {
      sweep::WriteCsvDir(csv_dir_, active, results);
    }
    return results;
  }

 private:
  // Loads the --fault-plan file, exiting on a parse error; false when the
  // flag was not passed.
  bool LoadFaultPlan(fault::FaultPlan* out) const {
    std::string error;
    if (!fault_plan_path_.empty() &&
        !fault::FaultPlan::FromJsonFile(fault_plan_path_, out, &error)) {
      std::fprintf(stderr, "--fault-plan: %s\n", error.c_str());
      std::exit(2);
    }
    return !fault_plan_path_.empty();
  }

  std::string figure_;
  std::string description_;
  flags::Parser parser_;
  int64_t parallelism_ = 0;
  std::string json_path_;
  std::string csv_dir_;
  bool progress_ = true;
  bool trace_ = false;
  int64_t trace_sample_ = 64;
  std::string trace_dir_ = ".";
  std::string fault_plan_path_;
  std::string workload_override_;
  std::string service_time_override_;
  double heavy_tail_prob_ = 0.0;
  double heavy_tail_mult_ = 10.0;
  std::string switch_policy_ = "fifo";
  std::string sim_queue_ = names::Name(sim::kDefaultQueueBackend);
  TimeNs horizon_ = RunHorizon();
};

}  // namespace draconis::bench

#endif  // DRACONIS_BENCH_COMMON_H_
