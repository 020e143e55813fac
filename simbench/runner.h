// Repetition driver of the host-cost benchmark: times RunExperiment and its
// set-up, checks every run's simulated outputs, and counts failures.

#ifndef DRACONIS_SIMBENCH_RUNNER_H_
#define DRACONIS_SIMBENCH_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "report.h"
#include "workloads.h"

namespace draconis::simbench {

// Heap allocations made so far through operator new, counted by the
// replacement operators in alloc_count.cc.
uint64_t AllocCount();

// One measured RunExperiment call.
struct Rep {
  double wall_s = 0.0;
  double ref_s = 0.0;  // the reference loop's time measured next to it
  uint64_t allocs = 0;
  Outputs outputs;
  LayerCounts counts;
};

struct SetupTimes {
  double generate_s = 0.0;
  double build_s = 0.0;
};

// Times the set-up RunExperiment performs before simulating: generating the
// job stream (generate_s), then constructing the testbed and making,
// building and wiring the deployment (build_s). Makes the same calls as
// RunExperiment, so work moved between set-up and the run still shows.
// Records one span per call when `spans` is non-null.
SetupTimes TimeSetup(const cluster::ExperimentConfig& config, SpanLog* spans);

class Runner {
 public:
  // Repetitions per end-to-end Measure call: at least this many, then more
  // while the next one is expected to end within the time budget.
  static constexpr int kMinReps = 3;
  // Set-up repetitions per MeasureSetup call: at least this many, and more
  // until this much time is spent.
  static constexpr int kMinSetupReps = 9;
  static constexpr double kSetupSeconds = 1.0;
  // The reference loop (reference.h) is re-timed before a repetition when
  // this long has passed since it last ran.
  static constexpr double kReferencePeriodS = 1.0;

  // `workload` must outlive the runner.
  Runner(const Workload& workload, uint64_t seed);

  const cluster::ExperimentConfig& config() const { return config_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // The repetitions that passed every check, in run order.
  const std::vector<Rep>& reps() const { return reps_; }
  // Every time of the reference loop taken so far.
  const std::vector<double>& reference_samples() const { return reference_samples_; }

  // Runs the pinned seed once and compares its outputs with the pins.
  // Untimed; it also warms the allocator and the process's static state.
  void Verify();

  // Times the set-up of the runner's configuration repeatedly (TimeSetup).
  std::vector<SetupTimes> MeasureSetup(SpanLog* spans);

  // Measured repetitions on the runner's seed: at least `min_reps`, then
  // more while the next one is expected to end within `seconds`. A
  // repetition fails when it throws, breaks an invariant, differs from the
  // pins (pinned seed only), or differs from the first repetition in
  // outputs, layer counts or allocation count.
  void Measure(double seconds, int min_reps, SpanLog* spans);

 private:
  // One RunExperiment; false (and counted as failed) when it threw.
  bool Run(const cluster::ExperimentConfig& config, SpanLog* spans, Rep* rep);
  // Prints `problems` and counts a failure when there are any.
  bool Check(const std::string& what, const std::vector<std::string>& problems);
  // The reference loop's latest time, re-timed every kReferencePeriodS.
  // Set-up repetitions are too short to pair with one sample each, so
  // set-up times are corrected with the run's median sample instead.
  double Reference(SpanLog* spans);

  const Workload& workload_;
  uint64_t seed_;
  cluster::ExperimentConfig config_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Rep> reps_;
  std::vector<double> reference_samples_;
  std::chrono::steady_clock::time_point ref_at_;
};

}  // namespace draconis::simbench

#endif  // DRACONIS_SIMBENCH_RUNNER_H_
