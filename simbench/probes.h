// Per-layer probes of the host-cost benchmark.
//
// Each probe drives one layer's public entry point directly, with the call
// mix and population size of a workload (ProbeShape), and reports host
// nanoseconds and heap allocations per call. The probes live in the
// benchmark, outside the simulator, so they measure the layers as a caller
// sees them and need no instrumentation inside the program.

#ifndef DRACONIS_SIMBENCH_PROBES_H_
#define DRACONIS_SIMBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>

#include "cluster/experiment.h"
#include "common/time.h"

namespace draconis::simbench {

// Heap allocations made so far by the counting operator new of the
// benchmark binary (main.cc).
uint64_t AllocCount();

// The population a workload presents to each layer.
struct ProbeShape {
  size_t executors = 0;      // pull loops (one Timer each)
  size_t nodes = 0;          // fabric endpoints: executors, clients, switches
  size_t tasks = 0;          // distinct task ids per run (MetricsHub set size)
  size_t outstanding = 1;    // client tasks awaiting completion at once
  TimeNs pull_backoff = 0;   // executor no-op backoff cap
  TimeNs task_timeout = 0;   // client timeout per task
  TimeNs task_gap = 1;       // mean gap between task submissions
};

ProbeShape ShapeOf(const cluster::ExperimentConfig& config);

struct ProbeResult {
  uint64_t calls = 0;
  double ns_per_call = 0.0;
  double allocs_per_call = 0.0;
};

// sim: Simulator::ScheduleAt + fire of a closure capturing a net::Packet,
// `shape.nodes` chains in flight.
ProbeResult ProbeOneShot(const ProbeShape& shape);
// sim: Timer::ScheduleAfter + fire, one self-re-arming timer per executor.
ProbeResult ProbeTimer(const ProbeShape& shape);
// sim: one cancellable ScheduleAfter + Cancel per task (client timeouts),
// `shape.outstanding` timeouts pending; each call includes the driving
// timer's fire and the lazy drop of the cancelled key.
ProbeResult ProbeCancel(const ProbeShape& shape);
// net: Network::Send -> delivery -> Endpoint::HandlePacket of a packet with
// `tasks_per_packet` tasks, `shape.nodes` endpoints.
ProbeResult ProbeHop(const ProbeShape& shape, size_t tasks_per_packet);
// p4: SwitchPipeline::HandlePacket of a task request on an empty
// DraconisProgram queue, through the no-op's delivery to the executor.
ProbeResult ProbeEmptyPull(const ProbeShape& shape);
// p4: one single-task submission plus the task request that takes it, each
// through the delivery of what the switch emits (ack, assignment).
ProbeResult ProbeAssign(const ProbeShape& shape);
// cluster: MetricsHub::FirstExecution + RecordAssignment +
// RecordExecutionStart per task, `shape.tasks` distinct ids per hub.
ProbeResult ProbeMetrics(const ProbeShape& shape);
// stats: stats::Histogram::Record.
ProbeResult ProbeHistogram();

}  // namespace draconis::simbench

#endif  // DRACONIS_SIMBENCH_PROBES_H_
