// RackSched (paper §2.2, OSDI '20), rebuilt from scratch: a two-layer
// scheduler with an in-switch inter-node component and a worker-side
// intra-node component.
//
// Inter-node: the switch tracks an estimated queue length per worker node,
// samples two distinct nodes per task (power-of-two choices), pushes the task
// to the shorter queue, and increments that node's estimate. Completions
// piggyback a correction that decrements the estimate.
//
// RackSched's real P4 program maintains replicated copies of the queue-length
// array across stages to satisfy the one-access-per-register rule; we model
// the counter state behaviorally (plain memory) and note the substitution in
// DESIGN.md — the *scheduling* behavior (sampling error under load, which is
// what the paper's comparison hinges on) is unchanged.
//
// Intra-node: each worker runs a dispatcher that adds a few microseconds of
// overhead per task — the overhead visible in the paper's Fig. 5a/6 even at
// low load. The policy is ExperimentConfig::racksched_intra_policy; the two
// RackSched prescribes (§2.2) plus a deadline-aware one:
//   - cFCFS without preemption (their recommendation for light-tailed
//     workloads; the default everywhere in the paper's comparison),
//   - Processor Sharing with preemption (their recommendation for
//     heavy-tailed workloads): all admitted tasks share the node's cores
//     equally, so short tasks are not stuck behind long ones, and
//   - EDF without preemption (the RackSched-EDF series of the benches): the
//     dispatcher picks the queued task with the earliest absolute deadline
//     (enqueue_time + TPROPS us, the deadline-tagger encoding); untagged
//     streams degenerate to cFCFS because every deadline equals the enqueue
//     time.

#ifndef DRACONIS_BASELINES_RACKSCHED_H_
#define DRACONIS_BASELINES_RACKSCHED_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "baselines/intra_node_policy.h"
#include "cluster/metrics.h"
#include "cluster/testbed.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"
#include "p4/pipeline.h"
#include "sim/simulator.h"

namespace draconis::baselines {

struct RackSchedConfig {
  size_t num_nodes = 10;
  uint64_t seed = 7;
};

struct RackSchedCounters {
  uint64_t tasks_pushed = 0;
  uint64_t credits = 0;
};

class RackSchedProgram : public p4::SwitchProgram {
 public:
  explicit RackSchedProgram(const RackSchedConfig& config);

  void BindNode(size_t node, net::NodeId worker);

  void OnPass(p4::PassContext& ctx, net::Packet pkt) override;

  const RackSchedCounters& counters() const { return counters_; }
  int32_t cp_queue_len(size_t node) const { return queue_len_[node]; }

 private:
  RackSchedConfig config_;
  Rng rng_;
  std::vector<int32_t> queue_len_;  // behavioral stand-in for replicated registers
  std::vector<net::NodeId> worker_of_node_;
  RackSchedCounters counters_;
};

// Worker node: one queue feeding `num_executors` cores through an intra-node
// dispatcher that costs `dispatch_overhead` per task.
class RackSchedWorker : public net::Endpoint {
 public:
  // Registers itself on the testbed's fabric; the testbed must outlive it.
  // When `report_latency` is set, completion credits carry the task's
  // measured sojourn (completion - enqueue_time) in summary_depth — the
  // feedback signal the Malcolm-style balancer steers by.
  RackSchedWorker(cluster::Testbed* testbed, size_t num_executors, uint32_t worker_node,
                  net::NodeId scheduler, TimeNs dispatch_overhead = TimeNs{3500},
                  TimeNs pickup_overhead = TimeNs{200},
                  IntraNodePolicy policy = IntraNodePolicy::kFcfs,
                  bool report_latency = false);

  net::NodeId node_id() const { return node_id_; }
  void SetScheduler(net::NodeId scheduler) { scheduler_ = scheduler; }
  size_t cp_running() const { return ps_tasks_.size(); }

  // net::Endpoint:
  void HandlePacket(net::Packet pkt) override;

 private:
  // --- cFCFS / EDF mode ---
  void TryDispatch();
  // The queue index to run next: front for cFCFS, the earliest absolute
  // deadline (stable on ties) for EDF.
  size_t NextQueueIndex() const;
  void FinishTask(size_t core, net::TaskInfo task, net::NodeId client);
  // Both modes: records the node completion, credits the switch, and sends
  // the client its completion notice.
  void Complete(net::TaskInfo task, net::NodeId client);
  void SendCredit(const net::TaskInfo& task);

  // --- Processor-Sharing mode ---
  struct PsTask {
    net::TaskInfo task;
    net::NodeId client = net::kInvalidNode;
    double remaining = 0.0;  // ns of work left at full-core speed
  };
  void PsAdmit(net::Packet pkt);
  // Ages all running tasks to `now` at the current sharing rate and
  // reschedules the next-completion event.
  void PsReschedule();
  double PsRate() const;  // per-task service rate (cores / tasks, capped at 1)

  sim::Simulator* simulator_;
  net::Network* network_;
  cluster::MetricsHub* metrics_;
  uint32_t worker_node_;
  net::NodeId scheduler_;
  TimeNs dispatch_overhead_;
  TimeNs pickup_overhead_;
  IntraNodePolicy policy_;
  bool report_latency_;
  net::NodeId node_id_;

  std::deque<net::Packet> queue_;
  std::vector<bool> core_busy_;

  std::vector<PsTask> ps_tasks_;
  TimeNs ps_last_update_ = 0;
  sim::EventHandle ps_completion_;
};

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_RACKSCHED_H_
