// Shared measurement sink for a simulation run.
//
// Executors, workers, and clients record into one MetricsHub. Recording is
// filtered by the measurement window: only tasks whose *first* submission
// falls inside [measure_start, measure_end) count, which excludes warmup and
// draining artifacts. Delay definitions follow DESIGN.md §5.

#ifndef DRACONIS_CLUSTER_METRICS_H_
#define DRACONIS_CLUSTER_METRICS_H_

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "net/packet.h"
#include "stats/histogram.h"
#include "stats/timeseries.h"

namespace draconis::cluster {

class MetricsHub {
 public:
  // `num_nodes` sizes the per-node completion time series (Fig. 11);
  // `priority_levels` > 0 enables per-priority histograms (Figs. 12, 13).
  MetricsHub(TimeNs measure_start, TimeNs measure_end, size_t num_nodes = 0,
             size_t priority_levels = 0,
             TimeNs node_series_bucket = kSecond);

  bool InWindow(TimeNs first_submit) const {
    return first_submit >= measure_start_ && first_submit < measure_end_;
  }

  TimeNs measure_start() const { return measure_start_; }
  TimeNs measure_end() const { return measure_end_; }

  // --- Recording (no-ops when the task is outside the window) --------------

  // True the first time a task reaches an executor. Timeout resubmissions
  // and hedges can execute a task twice; only the first execution is
  // measured, matching what the client observes (it counts the first
  // completion). Tests and sets the bit of the task's ordinal; a task that
  // never passed through RecordSubmission fails a check.
  bool FirstExecution(const net::TaskInfo& task);

  // For a hub driven without clients (simbench's cluster.metrics probe):
  // submits a task known only by its id and runs FirstExecution on it. Every
  // call is a new task, so it returns true; only the TaskInfo form can tell
  // a repeat.
  bool FirstExecution(const net::TaskId& id);

  // Called by an executor when a task begins service.
  void RecordExecutionStart(const net::TaskInfo& task, TimeNs exec_start);

  // Called by an executor when an assignment arrives (queueing delay).
  void RecordAssignment(const net::TaskInfo& task, TimeNs assign_time);

  // Request -> assignment latency at the executor, bucketed by the assigned
  // task's priority level when priorities are tracked.
  void RecordGetTask(uint32_t priority_level, TimeNs delay);

  void RecordPlacement(net::TaskInfo::Placement placement);

  // Called by an executor when a task finishes, attributed to its worker node.
  void RecordNodeCompletion(uint32_t worker_node, TimeNs at);

  // Called by the client when the completion notice arrives.
  void RecordEndToEnd(const net::TaskInfo& task, TimeNs completion_time);

  // Called once per task, at its first submission: gives the task the next
  // dense ordinal (task.meta.ordinal) and counts it when its
  // first_submit_time is in the window.
  void RecordSubmission(net::TaskInfo& task);
  void RecordTimeoutResubmission();
  void RecordQueueFullRetry();

  // --- §3.3 fault / recovery accounting (src/fault/) ------------------------

  // Declares the fault window [start, clear). Once set, RecordEndToEnd also
  // buckets each completion into the pre/during/post-fault histograms by its
  // *completion* time, and tracks the completion gap spanning `start` (the
  // unavailability window) for the recovery metrics below.
  void ConfigureFaultWindow(TimeNs start, TimeNs clear);
  bool fault_window_configured() const { return fault_start_ >= 0; }
  TimeNs fault_start() const { return fault_start_; }
  TimeNs fault_clear() const { return fault_clear_; }

  // A client or executor re-pointed itself at a standby scheduler (§3.3).
  void RecordClientRehome() { ++client_rehomes_; }
  void RecordExecutorRehome() { ++executor_rehomes_; }

  // Executor busy-time accounting for the CPU-efficiency analysis (§3.1):
  // `cores` executors busy over [start, end).
  void RecordBusyInterval(TimeNs start, TimeNs end, size_t cores = 1);

  // --- Straggler hedging (src/dag/, docs/dag.md) ---------------------------

  // A hedge duplicate was issued / the duplicate's completion arrived first.
  void RecordHedge() { ++hedges_launched_; }
  void RecordHedgeWin() { ++hedge_wins_; }
  // A losing replica was cancelled client-side (hedge winner arrived, or an
  // explicit Client::CancelTask).
  void RecordCancellation() { ++cancellations_; }
  // Executor time burnt on a replica whose task had already executed once
  // (hedge losers and timeout-resubmission duplicates).
  void RecordWastedWork(TimeNs span);

  // --- Results --------------------------------------------------------------

  const stats::Histogram& sched_delay() const { return sched_delay_; }
  const stats::Histogram& queueing_delay() const { return queueing_delay_; }
  const stats::Histogram& e2e_delay() const { return e2e_delay_; }
  // Per-task slowdown (end-to-end delay / declared execution time), recorded
  // in 1/1000ths so the integer histogram keeps 3 decimal digits; tasks with
  // no declared duration (no-ops) are skipped. The policy-comparison metric
  // of bench/fig_pifo_policies (SRPT optimizes mean slowdown, not latency).
  const stats::Histogram& slowdown_milli() const { return slowdown_milli_; }
  const stats::Histogram& get_task_delay() const { return get_task_delay_; }
  const stats::Histogram& priority_queueing(size_t level_1based) const;
  const stats::Histogram& priority_get_task(size_t level_1based) const;
  const stats::TimeSeries& node_completions(uint32_t node) const;
  size_t num_nodes() const { return node_completions_.size(); }
  // Total executions finished across all workers (counted regardless of the
  // measurement window; used by throughput benches to delta across it).
  uint64_t total_node_completions() const { return total_node_completions_; }
  size_t priority_levels() const { return priority_queueing_.size(); }

  // Phase-split end-to-end histograms; empty until ConfigureFaultWindow.
  const stats::Histogram& e2e_pre_fault() const { return e2e_pre_fault_; }
  const stats::Histogram& e2e_during_fault() const { return e2e_during_fault_; }
  const stats::Histogram& e2e_post_fault() const { return e2e_post_fault_; }

  // -1 while no in-window completion landed on that side of the fault onset.
  TimeNs last_completion_before_fault() const { return last_completion_before_fault_; }
  TimeNs first_completion_after_fault() const { return first_completion_after_fault_; }

  // Time from the fault onset to the first completion at/after it; -1 when
  // nothing completed after the onset (the cluster never recovered).
  TimeNs TimeToRecover() const;

  // Width of the completion gap spanning the onset (last completion before it
  // to the first at/after it); -1 when either side is missing.
  TimeNs UnavailabilityGap() const;

  uint64_t client_rehomes() const { return client_rehomes_; }
  uint64_t executor_rehomes() const { return executor_rehomes_; }

  uint64_t placements(net::TaskInfo::Placement p) const;
  uint64_t tasks_submitted() const { return tasks_submitted_; }
  uint64_t tasks_completed() const { return e2e_delay_.count(); }
  uint64_t timeout_resubmissions() const { return timeout_resubmissions_; }
  uint64_t queue_full_retries() const { return queue_full_retries_; }
  TimeNs total_busy() const { return total_busy_; }
  uint64_t hedges_launched() const { return hedges_launched_; }
  uint64_t hedge_wins() const { return hedge_wins_; }
  uint64_t cancellations() const { return cancellations_; }
  TimeNs wasted_busy() const { return wasted_busy_; }

  // Completed tasks per second of measurement window.
  double CompletionThroughput() const;

  // An order-independent 64-bit digest of the run's outcome: every first
  // assignment (task id, time), first completion at a client (task id,
  // attempt, time), finished execution (worker node, time) and wasted
  // execution (span), whether or not it falls inside the measurement window.
  // Runs that reach the same outcomes agree on it even when same-instant
  // events run in another order; any moved timestamp changes it.
  uint64_t outcome_fingerprint() const { return outcome_fingerprint_; }

 private:
  enum class Outcome : uint64_t { kAssignment = 1, kCompletion, kNodeCompletion, kWastedWork };
  // Adds one outcome record to outcome_fingerprint_. Records are mixed
  // one by one and summed, so the digest does not depend on their order.
  void FoldOutcome(Outcome kind, uint64_t a, uint64_t b, TimeNs at);

  TimeNs measure_start_;
  TimeNs measure_end_;

  stats::Histogram sched_delay_;
  stats::Histogram queueing_delay_;
  stats::Histogram e2e_delay_;
  stats::Histogram slowdown_milli_;
  stats::Histogram get_task_delay_;
  std::vector<stats::Histogram> priority_queueing_;
  std::vector<stats::Histogram> priority_get_task_;
  std::vector<stats::TimeSeries> node_completions_;

  // §3.3 recovery accounting; inert (fault_start_ == -1) until configured.
  TimeNs fault_start_ = -1;
  TimeNs fault_clear_ = -1;
  stats::Histogram e2e_pre_fault_;
  stats::Histogram e2e_during_fault_;
  stats::Histogram e2e_post_fault_;
  TimeNs last_completion_before_fault_ = -1;
  TimeNs first_completion_after_fault_ = -1;
  uint64_t client_rehomes_ = 0;
  uint64_t executor_rehomes_ = 0;

  // One bit per submitted task, indexed by its ordinal: set at its first
  // execution.
  std::vector<uint64_t> execution_bits_;
  uint32_t next_ordinal_ = 0;
  uint64_t total_node_completions_ = 0;
  uint64_t placement_counts_[3] = {0, 0, 0};
  uint64_t tasks_submitted_ = 0;
  uint64_t timeout_resubmissions_ = 0;
  uint64_t queue_full_retries_ = 0;
  TimeNs total_busy_ = 0;
  uint64_t hedges_launched_ = 0;
  uint64_t hedge_wins_ = 0;
  uint64_t cancellations_ = 0;
  TimeNs wasted_busy_ = 0;
  uint64_t outcome_fingerprint_ = 0;
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_METRICS_H_
