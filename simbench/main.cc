// Host-cost benchmark of the simulator: wall time, set-up time, memory and
// heap allocations of cluster::RunExperiment on one workload, with every
// simulated output checked (README.md).
//
//   simbench --workload=<name> [--seed=N] [--seconds=S] [--trace=0|1]
//            [--out=result.json] [--spans=spans.json]
//
// --trace=0 reports the end-to-end metrics; --trace=1 adds a traced pass
// and reports the per-layer metrics instead. The result document goes to
// --out (stdout when empty); failures go to stderr. Exits 1 when any run
// failed, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "net/packet.h"
#include "probes.h"
#include "reference.h"
#include "report.h"
#include "runner.h"
#include "workloads.h"

namespace draconis::simbench {
namespace {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<double> Collect(const std::vector<Rep>& reps, double (*fn)(const Rep&)) {
  std::vector<double> out;
  for (const Rep& rep : reps) {
    out.push_back(fn(rep));
  }
  return out;
}

// Tasks per corrected host second (reference.h).
double TasksPerWallSecond(const Rep& rep) {
  return static_cast<double>(rep.outputs.tasks_assigned) /
         CorrectedSeconds(rep.wall_s, rep.ref_s);
}

double Wall(const Rep& rep) { return rep.wall_s; }

// 0 when no repetition passed its checks (the result then says so).
double MedianOrZero(std::vector<double> values) {
  return values.empty() ? 0.0 : Median(std::move(values));
}

std::vector<Metric> EndToEnd(const Runner& runner, const std::vector<SetupTimes>& setups,
                             double peak_rss_mb) {
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.generate_s + t.build_s);
  }
  const double ref_s = Median(runner.reference_samples());
  const std::vector<Rep>& reps = runner.reps();
  const double tasks_per_wall_s = MedianOrZero(Collect(reps, TasksPerWallSecond));
  const double allocs_per_task =
      reps.empty() || reps[0].outputs.tasks_assigned == 0
          ? 0.0
          : static_cast<double>(reps[0].allocs) /
                static_cast<double>(reps[0].outputs.tasks_assigned);
  const double pass_frac =
      static_cast<double>(runner.attempted() - runner.failed()) /
      static_cast<double>(std::max<uint64_t>(1, runner.attempted()));
  return {
      {"tasks_per_wall_s", tasks_per_wall_s, "1/s"},
      {"setup_s", CorrectedSeconds(Median(setup_s), ref_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"allocs_per_task", allocs_per_task, "count"},
      {"pass_frac", pass_frac, "ratio"},
  };
}

struct Probes {
  ProbeResult oneshot, timer, cancel, hop, hop_batch, empty_pull, assign, metrics, record;
};

Probes RunProbes(const ProbeShape& shape, SpanLog* spans) {
  ScopedSpan all(spans, "probes");
  Probes p;
  const auto run = [spans](const char* name, auto&& probe) {
    ScopedSpan span(spans, name);
    return probe();
  };
  p.oneshot = run("probe.sim.oneshot", [&] { return ProbeOneShot(shape); });
  p.timer = run("probe.sim.timer", [&] { return ProbeTimer(shape); });
  p.cancel = run("probe.sim.cancel", [&] { return ProbeCancel(shape); });
  p.hop = run("probe.net.hop", [&] { return ProbeHop(shape, 1); });
  p.hop_batch =
      run("probe.net.hop_batch", [&] { return ProbeHop(shape, net::MaxTasksPerPacket()); });
  p.empty_pull = run("probe.p4.empty_pull", [&] { return ProbeEmptyPull(shape); });
  p.assign = run("probe.p4.assign", [&] { return ProbeAssign(shape); });
  p.metrics = run("probe.cluster.metrics", [&] { return ProbeMetrics(shape); });
  p.record = run("probe.stats.record", [] { return ProbeHistogram(); });
  return p;
}

// Host time the probes account for in one run, from the run's layer counts
// (README.md, "Call-count model"), in seconds.
double ExplainedSeconds(const cluster::ExperimentConfig& config, const LayerCounts& c,
                        const Probes& p) {
  const auto n = [](uint64_t count) { return static_cast<double>(count); };
  const double assigned = n(c.core_tasks_assigned);
  const double completing = config.noop_executors ? 0.0 : assigned;
  double ns = 0.0;
  // Both kinds: metrics hub per assignment, get-task delay histogram,
  // and for completing tasks the service-completion event, the client's
  // timeout arm/cancel and the e2e + slowdown histograms.
  ns += assigned * (p.metrics.ns_per_call + p.record.ns_per_call);
  ns += completing * (p.oneshot.ns_per_call + p.cancel.ns_per_call + 2 * p.record.ns_per_call);
  if (c.p4_passes > 0) {
    // Switch: each no-op is a pass plus its hop out and the executor's
    // backoff timer; each assignment is a submission pass and a request pass
    // with their hops out; every fresh pass arrived over one hop.
    ns += n(c.core_noops_sent) * (p.empty_pull.ns_per_call + p.timer.ns_per_call);
    ns += assigned * p.assign.ns_per_call;
    ns += n(c.p4_passes - c.p4_recirculations) * p.hop.ns_per_call;
    ns += completing * p.hop.ns_per_call;  // completion notice to the client
    ns += n(c.topology_summary_packets) * p.hop.ns_per_call;
  } else {
    // Central server: per job a batched submission and an ack; per task an
    // assignment, a completion and a completion notice.
    const double jobs =
        assigned / static_cast<double>(std::max<size_t>(1, config.workload.tasks_per_job));
    ns += jobs * (p.hop_batch.ns_per_call + p.hop.ns_per_call);
    ns += 3 * assigned * p.hop.ns_per_call;
  }
  return ns * 1e-9;
}

// `ref_s` is the run's median reference-loop time (reference.h).
std::vector<Metric> PerLayer(const cluster::ExperimentConfig& config,
                             const std::vector<Rep>& untraced, const std::vector<Rep>& traced,
                             const std::vector<SetupTimes>& traced_setups, double ref_s,
                             const Probes& p) {
  const LayerCounts c = untraced.empty() ? LayerCounts{} : untraced[0].counts;
  const double untraced_wall = MedianOrZero(Collect(untraced, Wall));
  std::vector<double> generate_s;
  std::vector<double> build_s;
  for (const SetupTimes& t : traced_setups) {
    generate_s.push_back(t.generate_s);
    build_s.push_back(t.build_s);
  }
  const auto n = [](uint64_t count) { return static_cast<double>(count); };
  return {
      {"sim.oneshot_ns", p.oneshot.ns_per_call, "ns"},
      {"sim.allocs_per_event", p.oneshot.allocs_per_call, "count"},
      {"sim.timer_ns", p.timer.ns_per_call, "ns"},
      {"sim.cancel_ns", p.cancel.ns_per_call, "ns"},
      {"net.hop_ns", p.hop.ns_per_call, "ns"},
      {"net.allocs_per_hop", p.hop.allocs_per_call, "count"},
      {"net.hop_ns_batch", p.hop_batch.ns_per_call, "ns"},
      {"net.allocs_per_hop_batch", p.hop_batch.allocs_per_call, "count"},
      {"p4.empty_pull_ns", p.empty_pull.ns_per_call, "ns"},
      {"p4.assign_ns", p.assign.ns_per_call, "ns"},
      {"cluster.metrics_ns", p.metrics.ns_per_call, "ns"},
      {"stats.record_ns", p.record.ns_per_call, "ns"},
      {"cluster.build_s", CorrectedSeconds(Median(build_s), ref_s), "s"},
      {"workload.generate_s", CorrectedSeconds(Median(generate_s), ref_s), "s"},
      {"p4.passes", n(c.p4_passes), "count"},
      {"p4.recirculations", n(c.p4_recirculations), "count"},
      {"p4.recirc_drops", n(c.p4_recirc_drops), "count"},
      {"core.noops_sent", n(c.core_noops_sent), "count"},
      {"core.useful_pass_frac", c.useful_pass_frac(), "ratio"},
      {"cluster.tasks_completed", n(c.cluster_tasks_completed), "count"},
      {"cluster.timeout_resubmissions", n(c.cluster_timeout_resubmissions), "count"},
      {"net.packets_dropped", n(c.net_packets_dropped), "count"},
      {"topology.summary_packets", n(c.topology_summary_packets), "count"},
      {"topology.cross_rack_frac", c.cross_rack_frac(), "ratio"},
      {"baselines.parked_requests", n(c.baselines_parked_requests), "count"},
      {"explained_frac",
       untraced_wall > 0.0 ? ExplainedSeconds(config, c, p) / untraced_wall : 0.0, "ratio"},
      {"bench.trace_overhead_s", MedianOrZero(Collect(traced, Wall)) - untraced_wall, "s"},
      {"bench.reference_s", ref_s, "s"},
  };
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  out.close();
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = -1;
  double seconds = 10.0;
  int64_t trace = 0;
  std::string out_path;
  std::string spans_path;
  flags::Parser parser("simulator host-cost benchmark (simbench/README.md)");
  parser.AddString("workload", &workload_name, "workload to run");
  parser.AddInt64("seed", &seed, "workload seed; -1 runs the workload's pinned seed");
  parser.AddDouble("seconds", &seconds, "measuring time of the run");
  parser.AddInt64("trace", &trace, "1: add the traced pass and report per-layer metrics");
  parser.AddString("out", &out_path, "write the result document here (default stdout)");
  parser.AddString("spans", &spans_path, "write the traced pass's spans here");
  std::string error;
  if (!parser.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n\n%s", error.c_str(), parser.Usage().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::fputs(parser.Usage().c_str(), stdout);
    return 0;
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr || seed < -1 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "simbench: bad arguments (workloads:");
    for (const Workload& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  Runner runner(*workload, seed < 0 ? workload->pinned_seed : static_cast<uint64_t>(seed));
  runner.Verify();
  std::vector<Metric> metrics;
  if (trace == 0) {
    // Peak RSS is read after the pinned run and one measured repetition:
    // later repetitions repeat the same run, and reading it here keeps it
    // independent of how many repetitions fit in the time budget.
    runner.Measure(0.0, 1, nullptr);
    const double peak_rss_mb = PeakRssMb();
    const std::vector<SetupTimes> setups = runner.MeasureSetup(nullptr);
    const double first_s = runner.reps().empty() ? 0.0 : runner.reps()[0].wall_s;
    runner.Measure(seconds - first_s, Runner::kMinReps - 1, nullptr);
    metrics = EndToEnd(runner, setups, peak_rss_mb);
  } else {
    // Half the budget untraced, then the traced pass: set-up, runs and
    // probes, each inside spans.
    runner.Measure(seconds / 2, Runner::kMinReps, nullptr);
    const std::vector<Rep> untraced = runner.reps();
    SpanLog spans;
    std::vector<SetupTimes> traced_setups;
    Probes probes;
    {
      ScopedSpan pass(&spans, "traced_pass");
      traced_setups = runner.MeasureSetup(&spans);
      runner.Measure(seconds / 4, 1, &spans);
      probes = RunProbes(ShapeOf(runner.config()), &spans);
    }
    const std::vector<Rep> traced(runner.reps().begin() + untraced.size(), runner.reps().end());
    metrics = PerLayer(runner.config(), untraced, traced, traced_setups,
                       Median(runner.reference_samples()), probes);
    if (!spans_path.empty() && !WriteFile(spans_path, spans.ToJson())) {
      std::fprintf(stderr, "simbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }

  const bool correct = runner.failed() == 0;
  const std::string result = ResultJson(correct, runner.attempted(), runner.failed(), metrics);
  if (out_path.empty()) {
    std::printf("%s\n", result.c_str());
  } else if (!WriteFile(out_path, result)) {
    std::fprintf(stderr, "simbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace draconis::simbench

int main(int argc, char** argv) {
  // Runs catch their own failures; this reports anything else (a failing
  // set-up, an unwritable output) without a result document.
  try {
    return draconis::simbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
