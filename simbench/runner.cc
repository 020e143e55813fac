#include "runner.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/deployment.h"
#include "cluster/testbed.h"
#include "reference.h"

namespace draconis::simbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

SetupTimes TimeSetup(const cluster::ExperimentConfig& config, SpanLog* spans) {
  ScopedSpan setup(spans, "setup");
  SetupTimes times;
  const Clock::time_point start = Clock::now();
  workload::JobStream stream;
  {
    ScopedSpan span(spans, "workload.generate");
    stream = config.workload.Generate();
  }
  times.generate_s = SecondsSince(start);

  const Clock::time_point build_start = Clock::now();
  // The TestbedConfig RunExperiment derives from the experiment config.
  cluster::TestbedConfig tc;
  tc.seed = config.seed;
  tc.num_workers = 0;
  for (const topology::RackSpec& rack : cluster::EffectiveRackSpecs(config)) {
    tc.num_workers += rack.num_workers;
  }
  tc.num_racks = config.num_racks;
  tc.warmup = config.warmup;
  tc.horizon = config.horizon > 0 ? config.horizon
                                  : (stream.empty() ? 0 : stream.back().at) + FromMillis(50);
  tc.priority_levels =
      config.policy == cluster::PolicyKind::kPriority ? config.priority_levels : 0;
  tc.node_series_bucket = config.node_series_bucket;
  tc.network = config.network;
  if (config.cluster.enabled()) {
    tc.network.aggregation_latency = config.cluster.aggregation_latency;
    tc.network.agg_ns_per_byte = config.cluster.agg_ns_per_byte;
  }
  tc.trace = config.trace;
  tc.sim_queue = config.sim_queue;
  std::optional<cluster::Testbed> testbed;
  {
    ScopedSpan span(spans, "cluster.testbed");
    testbed.emplace(tc);
  }
  std::unique_ptr<cluster::SchedulerDeployment> deployment;
  {
    ScopedSpan span(spans, "cluster.make");
    deployment = cluster::DeploymentRegistry::Get().Make(config);
  }
  {
    ScopedSpan span(spans, "cluster.build");
    deployment->Build(*testbed);
  }
  {
    ScopedSpan span(spans, "cluster.wire_workers");
    deployment->WireWorkers(*testbed);
  }
  times.build_s = SecondsSince(build_start);
  deployment.reset();  // before the testbed it is wired into
  return times;
}

Runner::Runner(const Workload& workload, uint64_t seed)
    : workload_(workload), seed_(seed), config_(workload.make_config(seed)) {}

void Runner::Verify() {
  Rep rep;
  if (Run(workload_.make_config(workload_.pinned_seed), nullptr, &rep)) {
    Check("pinned seed", DiffOutputs(rep.outputs, workload_.pins));
  }
}

std::vector<SetupTimes> Runner::MeasureSetup(SpanLog* spans) {
  std::vector<SetupTimes> times;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kMinSetupReps || SecondsSince(start) < kSetupSeconds; ++i) {
    Reference(spans);
    times.push_back(TimeSetup(config_, spans));
  }
  return times;
}

void Runner::Measure(double seconds, int min_reps, SpanLog* spans) {
  const Clock::time_point start = Clock::now();
  double last_wall = 0.0;
  for (int i = 0; i < min_reps || SecondsSince(start) + last_wall <= seconds; ++i) {
    Rep rep;
    rep.ref_s = Reference(spans);
    const bool ran = Run(config_, spans, &rep);
    last_wall = rep.wall_s;
    if (!ran) {
      continue;
    }
    std::vector<std::string> problems = CheckInvariants(rep.outputs, rep.counts);
    if (seed_ == workload_.pinned_seed) {
      for (std::string& diff : DiffOutputs(rep.outputs, workload_.pins)) {
        problems.push_back(std::move(diff));
      }
    }
    if (!reps_.empty()) {
      // Every repetition simulates the same run; anything else means the
      // simulator is no longer deterministic.
      const Rep& first = reps_.front();
      if (!(rep.outputs == first.outputs)) {
        problems.emplace_back("outputs differ between repetitions");
      }
      if (!(rep.counts == first.counts)) {
        problems.emplace_back("layer counts differ between repetitions");
      }
      if (rep.allocs != first.allocs) {
        problems.emplace_back("allocation count differs between repetitions (" +
                              std::to_string(rep.allocs) + " vs " +
                              std::to_string(first.allocs) + ")");
      }
    }
    if (Check("seed " + std::to_string(seed_), problems)) {
      reps_.push_back(rep);
    }
  }
}

bool Runner::Run(const cluster::ExperimentConfig& config, SpanLog* spans, Rep* rep) {
  ++attempted_;
  try {
    ScopedSpan span(spans, "cluster.run_experiment");
    const uint64_t allocs_before = AllocCount();
    const Clock::time_point start = Clock::now();
    const cluster::ExperimentResult result = cluster::RunExperiment(config);
    rep->wall_s = SecondsSince(start);
    rep->allocs = AllocCount() - allocs_before;
    rep->outputs = ExtractOutputs(result);
    rep->counts = ExtractCounts(result);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s: run failed: %s\n", workload_.name, e.what());
    ++failed_;
    return false;
  }
}

double Runner::Reference(SpanLog* spans) {
  if (reference_samples_.empty() || SecondsSince(ref_at_) >= kReferencePeriodS) {
    ScopedSpan span(spans, "reference");
    reference_samples_.push_back(TimeReferenceLoop());
    ref_at_ = Clock::now();
  }
  return reference_samples_.back();
}

bool Runner::Check(const std::string& what, const std::vector<std::string>& problems) {
  for (const std::string& p : problems) {
    std::fprintf(stderr, "simbench: %s (%s): %s\n", workload_.name, what.c_str(), p.c_str());
  }
  if (!problems.empty()) {
    ++failed_;
  }
  return problems.empty();
}

}  // namespace draconis::simbench
