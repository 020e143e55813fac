// Scheduling policies (paper §4.8, §5, §6).
//
// A policy customizes the Draconis switch program along three axes:
//   - queue replication: how many class-of-service queues exist and which one
//     a task is inserted into (§6);
//   - the per-retrieval examination: whether a dequeued task may run on the
//     requesting executor, updating the task's skip counter (§5);
//   - the swap bound: how many task-swapping recirculations a single
//     task_request may spend before the walk gives up (§5.1).
//
// The meaning of the packet fields is policy-specific: TPROPS carries a
// resource bitmap, a priority level, or a data-local node id; EXEC_PROPS
// carries the executor's resource bitmap or its worker-node id.

#ifndef DRACONIS_CORE_POLICY_H_
#define DRACONIS_CORE_POLICY_H_

#include <cstddef>
#include <cstdint>

#include "core/queue_entry.h"
#include "net/packet.h"

namespace draconis::core {

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual const char* name() const = 0;

  // Number of replicated class-of-service queues (1 unless priority-aware).
  virtual size_t num_queues() const { return 1; }

  // Queue a submitted task is inserted into (0-based).
  virtual size_t QueueForTask(const net::TaskInfo& task) const {
    (void)task;
    return 0;
  }

  // Examines a retrieved entry against the requesting executor's EXEC_PROPS.
  // Returns true to assign; returning false asks the program to swap the task
  // back and look deeper. May mutate the entry (skip counter, placement tag).
  virtual bool ShouldAssign(QueueEntry& entry, uint32_t exec_props) {
    (void)entry;
    (void)exec_props;
    return true;
  }

  // Upper bound on swap recirculations per task_request (0: never swap).
  virtual uint32_t max_swaps() const { return 0; }
};

// §4.8 — centralized first-come-first-served. Every task is assignable to
// every executor.
class FcfsPolicy : public SchedulingPolicy {
 public:
  const char* name() const override { return "fcfs"; }
};

// §6.1 — task-level priorities via queue replication. TPROPS is the priority
// level (1 = highest). Tasks within a level run FCFS.
class PriorityPolicy : public SchedulingPolicy {
 public:
  explicit PriorityPolicy(size_t levels);

  const char* name() const override { return "priority"; }
  size_t num_queues() const override { return levels_; }
  size_t QueueForTask(const net::TaskInfo& task) const override;

  size_t levels() const { return levels_; }

 private:
  size_t levels_;
};

// §5.2 — hard resource constraints. TPROPS and EXEC_PROPS are bitmaps; a task
// is assignable iff the executor offers every resource the task demands.
class ResourcePolicy : public SchedulingPolicy {
 public:
  explicit ResourcePolicy(uint32_t max_swaps = 16) : max_swaps_(max_swaps) {}

  const char* name() const override { return "resource"; }
  bool ShouldAssign(QueueEntry& entry, uint32_t exec_props) override;
  uint32_t max_swaps() const override { return max_swaps_; }

 private:
  uint32_t max_swaps_;
};

// §5.3 — data-locality preference with escalation. TPROPS is the data-local
// worker node; EXEC_PROPS is the requesting executor's worker node. Each time
// a task is examined and skipped its skip counter grows, progressively
// relaxing the constraint from node-local to rack-local to anywhere.
//
// The rack map is the paper's worker -> rack table (on the real system a
// match-action table installed by the network controller): worker node n
// sits in rack n % num_racks.
class LocalityPolicy : public SchedulingPolicy {
 public:
  struct Limits {
    uint32_t rack_start_limit = 3;
    uint32_t global_start_limit = 9;
  };

  LocalityPolicy(size_t num_workers, size_t num_racks, Limits limits, uint32_t max_swaps = 16);

  const char* name() const override { return "locality"; }
  bool ShouldAssign(QueueEntry& entry, uint32_t exec_props) override;
  uint32_t max_swaps() const override { return max_swaps_; }

  const Limits& limits() const { return limits_; }

 private:
  size_t num_workers_;
  size_t num_racks_;
  Limits limits_;
  uint32_t max_swaps_;
};

// Computes the placement tag of an assignment: where the executor's node sits
// relative to the task's data-local node. Used by every policy (including
// FCFS when run on a locality-tagged workload) for Fig. 10's metrics. Racks
// follow LocalityPolicy's map; throws on a data node outside
// [0, num_workers), since TPROPS can come from a trace file.
net::TaskInfo::Placement ClassifyPlacement(size_t num_workers, size_t num_racks, uint32_t data_node,
                                           uint32_t exec_node);

}  // namespace draconis::core

#endif  // DRACONIS_CORE_POLICY_H_
