// Wall-clock overhead of the task-lifecycle tracer (src/trace/).
//
// Runs the same fig05a-shaped Draconis experiment in four modes and compares
// best-of-N wall time:
//
//   baseline    tracing off (the reference timing)
//   disabled    tracing off again — the disabled-path cost is one null check
//               per record site, so this doubles as the noise floor and
//               catches regressions that make "off" expensive (CI gates this
//               at < 2% over baseline)
//   sample_64   the default 1-in-64 sampling rate
//   sample_1    every task traced (the worst case)
//
// Tracing must never change results: the bench also asserts the completed
// task count is identical across all four modes and emits BENCH_trace.json.
//
// Environment:
//   DRACONIS_BENCH_QUICK=1    shorter horizon, fewer reps (CI smoke)
// Flags:
//   --json=path               where to write the JSON (default
//                             ./BENCH_trace.json)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/time.h"
#include "workload/workload.h"

namespace draconis::bench {
namespace {

bool Quick() {
  const char* env = std::getenv("DRACONIS_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

cluster::ExperimentConfig MakeConfig(bool enabled, uint64_t period, TimeNs horizon) {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(2);
  config.horizon = horizon;
  config.max_tasks_per_packet = 1;
  config.jbsq_k = 3;
  config.timeout_multiplier = 5.0;
  config.seed = 42;
  config.trace.enabled = enabled;
  config.trace.sample_period = period;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = 100e3 * 16.0 / 160.0;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 10;
  config.workload.service = workload::ServiceTime::Fixed(FromMicros(500));
  config.workload.seed = config.seed;
  return config;
}

struct Mode {
  const char* name;
  bool enabled;
  uint64_t period;
  double best_seconds = 1e100;
  uint64_t tasks_completed = 0;
  uint64_t trace_records = 0;
};

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_trace.json";
  flags::Parser parser("micro_trace — wall-clock overhead of task-lifecycle tracing");
  parser.AddString("json", &json_path, "where to write the benchmark JSON");
  std::string error;
  if (!parser.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n\n%s", error.c_str(), parser.Usage().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::fputs(parser.Usage().c_str(), stdout);
    return 0;
  }

  const bool quick = Quick();
  const TimeNs horizon = quick ? FromMillis(15) : FromMillis(60);
  const int reps = quick ? 3 : 5;
  std::printf("trace overhead benchmark — fig05a-shaped run, horizon %s, best of %d\n",
              FormatDuration(horizon).c_str(), reps);

  std::vector<Mode> modes = {
      {"baseline", false, 64},
      {"disabled", false, 64},
      {"sample_64", true, 64},
      {"sample_1", true, 1},
  };

  // Interleave the modes rep by rep so frequency scaling and thermal drift
  // hit all of them equally; keep each mode's best (minimum) wall time.
  for (int r = 0; r < reps; ++r) {
    for (Mode& mode : modes) {
      cluster::ExperimentConfig config = MakeConfig(mode.enabled, mode.period, horizon);
      const auto start = std::chrono::steady_clock::now();
      cluster::ExperimentResult result = cluster::RunExperiment(config);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      mode.best_seconds = std::min(mode.best_seconds, elapsed.count());
      mode.tasks_completed = result.metrics->tasks_completed();
      mode.trace_records = result.trace != nullptr ? result.trace->records().size() : 0;
    }
  }

  // Tracing is a pure observer: every mode must complete the same tasks.
  for (const Mode& mode : modes) {
    DRACONIS_CHECK_MSG(mode.tasks_completed == modes[0].tasks_completed,
                       "tracing changed the experiment outcome");
  }

  const double base = modes[0].best_seconds;
  auto overhead_pct = [base](const Mode& m) {
    return (m.best_seconds - base) / base * 100.0;
  };
  for (const Mode& mode : modes) {
    std::printf("%-10s %8.2f ms   %+6.2f%%   %llu tasks, %llu records\n", mode.name,
                mode.best_seconds * 1e3, overhead_pct(mode),
                static_cast<unsigned long long>(mode.tasks_completed),
                static_cast<unsigned long long>(mode.trace_records));
  }

  json::Writer w;
  w.BeginObject();
  w.Key("bench").String("trace_overhead");
  w.Key("unit").String("seconds_best_of_n");
  w.Key("quick").Bool(quick);
  w.Key("reps").Int(reps);
  w.Key("tasks_completed").UInt(modes[0].tasks_completed);
  w.Key("modes").BeginArray();
  for (const Mode& mode : modes) {
    w.BeginObject();
    w.Key("name").String(mode.name);
    w.Key("seconds").Double(mode.best_seconds);
    w.Key("overhead_pct").Double(overhead_pct(mode));
    w.Key("trace_records").UInt(mode.trace_records);
    w.EndObject();
  }
  w.EndArray();
  w.Key("overhead_disabled_pct").Double(overhead_pct(modes[1]));
  w.Key("overhead_sample64_pct").Double(overhead_pct(modes[2]));
  w.Key("overhead_full_pct").Double(overhead_pct(modes[3]));
  w.EndObject();
  const std::string doc = w.str() + "\n";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace draconis::bench

int main(int argc, char** argv) { return draconis::bench::Main(argc, argv); }
