// Example: mixed CPU/GPU inference fleet with hard resource constraints.
//
// A 6-node cluster serves two models: a small CPU model anyone can run, and
// a large model that needs a GPU (only 2 nodes have one). The resource-aware
// policy (§5.2) routes by EXEC_RSRC/TPROPS bitmaps: GPU requests never land
// on CPU-only nodes, and CPU requests soak up whatever is free — including
// spare GPU-node capacity.
//
//   ./build/examples/gpu_inference

#include <cstdio>

#include "cluster/experiment.h"
#include "cluster/feeder.h"
#include "common/rng.h"
#include "workload/workload.h"

using namespace draconis;
using namespace draconis::cluster;

namespace {
constexpr uint32_t kCpu = 0b01;
constexpr uint32_t kGpu = 0b10;
}  // namespace

int main() {
  std::printf("Inference fleet: 4 CPU nodes + 2 GPU nodes, resource-aware scheduling\n\n");

  ExperimentConfig config;
  config.scheduler = SchedulerKind::kDraconis;
  config.policy = PolicyKind::kResource;
  config.num_workers = 6;
  config.executors_per_worker = 8;
  config.num_clients = 2;
  config.max_tasks_per_packet = 1;
  // Nodes 0-3: CPU only. Nodes 4-5: CPU and GPU.
  config.worker_resources = {kCpu, kCpu, kCpu, kCpu, kCpu | kGpu, kCpu | kGpu};
  config.warmup = 1;
  config.horizon = FromSeconds(4);
  config.run_to_completion = true;
  config.timeout_multiplier = 1e6;
  config.executor_template.max_retry = FromMicros(200);

  // 70% small-model requests (300 us, CPU), 30% large-model (1.5 ms, GPU).
  // The arrivals come from a WorkloadSpec; the per-task rewrite (resource
  // bits and mixed durations) is not a spec stage, so the example rewrites
  // the generated stream and replays it through its own Feeder.
  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 60000.0;
  spec.duration = FromMillis(500);
  spec.service = workload::ServiceTime::Fixed(FromMicros(300));
  spec.seed = 3;
  workload::JobStream stream = spec.Generate();
  Rng rng(99);
  for (auto& job : stream) {
    for (auto& task : job.tasks) {
      if (rng.NextBool(0.3)) {
        task.tprops = kGpu;
        task.duration = FromMillis(1.5) / 1;  // large model
      } else {
        task.tprops = kCpu;
      }
    }
  }

  Feeder feeder(&stream);
  ExperimentResult result = RunExperiment(config, feeder);

  std::printf("tasks completed: %llu (drained at %s)\n\n",
              static_cast<unsigned long long>(result.metrics->tasks_completed()),
              FormatDuration(result.drain_time).c_str());
  std::printf("%-10s %14s\n", "node", "tasks executed");
  for (uint32_t node = 0; node < 6; ++node) {
    double executed = 0;
    const auto& series = result.metrics->node_completions(node);
    for (size_t b = 0; b < series.NumBuckets(); ++b) {
      executed += series.BucketSum(b);
    }
    std::printf("node %-5u %14.0f   (%s)\n", node, executed,
                node >= 4 ? "CPU+GPU" : "CPU only");
  }
  std::printf("\nGPU requests were confined to nodes 4-5 by the TPROPS/EXEC_RSRC bitmap\n"
              "match in the switch; CPU requests filled every node. No scheduler server\n"
              "was involved — the placement decisions happened at line rate.\n");
  return result.metrics->tasks_completed() > 0 ? 0 : 1;
}
