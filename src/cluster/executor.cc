#include "cluster/executor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/policy.h"

namespace draconis::cluster {

Executor::Executor(Testbed* testbed, const ExecutorConfig& config)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      testbed_config_(&testbed->config()),
      metrics_(testbed->metrics()),
      recorder_(testbed->recorder()),
      config_(config),
      rng_(config.worker_node * 1000003ULL + config.exec_props + 17),
      retry_interval_(config.initial_retry) {
  DRACONIS_CHECK(metrics_ != nullptr);
  node_id_ = network_->Register(this, config.host_profile);
  pull_timer_.Bind(simulator_, [this] { SendRequest(); });
  fetch_timer_.Bind(simulator_, [this] {
    if (fetch_pending_) {
      SendParamFetch();  // the fetch or its reply was lost
    }
  });
}

void Executor::Start(net::NodeId scheduler, TimeNs at) {
  scheduler_ = scheduler;
  pull_timer_.ScheduleAt(at);
}

void Executor::Rehome(net::NodeId scheduler) {
  if (recorder_ != nullptr && scheduler != scheduler_) {
    recorder_->RecordGlobal(trace::Kind::kRehome, simulator_->Now(), scheduler, node_id_);
  }
  scheduler_ = scheduler;
}

void Executor::SendRequest() {
  net::Packet request;
  request.op = net::OpCode::kTaskRequest;
  request.dst = scheduler_;
  request.exec_props = config_.exec_props;
  request.rtrv_prio = 1;
  last_request_time_ = simulator_->Now();
  network_->Send(node_id_, std::move(request));
  pull_timer_.ScheduleAfter(config_.request_timeout);
}

void Executor::HandlePacket(net::Packet pkt) {
  switch (pkt.op) {
    case net::OpCode::kTaskAssignment:
      pull_timer_.Cancel();
      retry_interval_ = config_.initial_retry;
      RunTask(std::move(pkt));
      return;
    case net::OpCode::kParamData: {
      // §4.4: the client shipped the real parameters; run the held task.
      if (!fetch_pending_ || !(pkt.tasks.at(0).id == fetch_task_.id)) {
        return;  // stale duplicate
      }
      fetch_timer_.Cancel();
      fetch_pending_ = false;
      Execute(std::move(fetch_task_), fetch_client_, fetch_access_, fetch_record_);
      return;
    }
    case net::OpCode::kNoOpTask: {
      // Nothing to do yet; ask again after the current backoff, jittered by
      // +-50% so an idle fleet's polls stay desynchronized (a fixed period
      // phase-locks the pollers and opens dead zones as long as the period).
      const TimeNs wait =
          retry_interval_ / 2 + static_cast<TimeNs>(rng_.NextBelow(retry_interval_));
      retry_interval_ = std::min(retry_interval_ * 2, config_.max_retry);
      pull_timer_.ScheduleAfter(std::max<TimeNs>(wait, 1));
      return;
    }
    default:
      // Stray packet (e.g. traffic addressed elsewhere in tests); ignore.
      return;
  }
}

void Executor::RunTask(net::Packet assignment) {
  DRACONIS_CHECK_MSG(!assignment.tasks.empty(), "assignment without a task");
  net::TaskInfo task = std::move(assignment.tasks[0]);
  const TimeNs now = simulator_->Now();
  const bool in_window = now >= metrics_->measure_start() && now < metrics_->measure_end();
  // Duplicate executions (timeout resubmissions) run but are not measured.
  const bool first = metrics_->FirstExecution(task);

  if (recorder_ != nullptr && recorder_->Sampled(task.id)) {
    const uint64_t wait =
        last_request_time_ >= 0 ? static_cast<uint64_t>(now - last_request_time_) : 0;
    recorder_->Record(task.id, trace::Kind::kExecArrive, now, now, wait, node_id_,
                      task.meta.attempt, first ? 0 : 1);
  }

  if (first && in_window && last_request_time_ >= 0) {
    metrics_->RecordGetTask(task.tprops, now - last_request_time_);
  }
  if (first) {
    metrics_->RecordAssignment(task, now);
  }

  // Data-access penalty for locality experiments.
  TimeNs access = 0;
  if (config_.locality_access_model) {
    const TestbedConfig& tb = *testbed_config_;
    const auto placement =
        core::ClassifyPlacement(tb.num_workers, tb.num_racks, task.tprops, config_.worker_node);
    if (first && metrics_->InWindow(task.meta.first_submit_time)) {
      metrics_->RecordPlacement(placement);
    }
    switch (placement) {
      case net::TaskInfo::Placement::kLocal:
        access = config_.local_access;
        break;
      case net::TaskInfo::Placement::kSameRack:
        access = config_.rack_access;
        break;
      default:
        access = config_.remote_access;
        break;
    }
  }

  if (config_.drop_tasks) {
    // Fig. 5b no-op mode: drop the task and immediately request the next one
    // (no completion notice; the loop rate is what the benchmark measures).
    ++tasks_executed_;
    SendRequest();
    return;
  }

  const net::NodeId client = assignment.client_addr;
  if (task.fn_id == net::kTransmissionFnId && client != net::kInvalidNode) {
    // §4.4: a transmission-function task — hold it and fetch the real
    // parameters from the client before running. The executor stays occupied
    // during the fetch round trip.
    fetch_pending_ = true;
    fetch_task_ = std::move(task);
    fetch_client_ = client;
    fetch_access_ = access;
    fetch_record_ = first;
    SendParamFetch();
    return;
  }

  Execute(std::move(task), client, access, first);
}

void Executor::SendParamFetch() {
  net::Packet fetch;
  fetch.op = net::OpCode::kParamFetch;
  fetch.dst = fetch_client_;
  fetch.tasks = {fetch_task_};
  network_->Send(node_id_, std::move(fetch));
  fetch_timer_.ScheduleAfter(config_.request_timeout);
}

void Executor::Execute(net::TaskInfo task, net::NodeId client, TimeNs access, bool record) {
  const TimeNs now = simulator_->Now();
  const TimeNs pickup = config_.pickup_overhead;
  const TimeNs service = access + task.meta.exec_duration;
  const TimeNs exec_start = now + pickup;
  if (record) {
    metrics_->RecordExecutionStart(task, exec_start);
  }

  if (recorder_ != nullptr && recorder_->Sampled(task.id)) {
    recorder_->Record(task.id, trace::Kind::kExecPickup, now, exec_start,
                      static_cast<uint64_t>(access), node_id_, task.meta.attempt, 0);
    // aux = 1 marks a duplicate execution (timeout resubmission or hedge
    // replica): exactly one of an id's service spans carries aux = 0 — the
    // first to *start*, not necessarily the one whose notice wins the race
    // to the terminal kComplete (trace_test pins both).
    recorder_->Record(task.id, trace::Kind::kExecService, exec_start, exec_start + service,
                      static_cast<uint64_t>(task.meta.exec_duration), node_id_,
                      task.meta.attempt, record ? 0 : 1);
  }

  const TimeNs done = exec_start + service;
  busy_time_ += done - now;
  metrics_->RecordBusyInterval(now, done);
  if (!record) {
    // This id already executed once: the whole occupancy is wasted work —
    // the *marginal* executor time replication cost, whichever replica ends
    // up winning the completion race (docs/dag.md).
    metrics_->RecordWastedWork(done - now);
  }
  ++tasks_executed_;

  simulator_->ScheduleAt(done, [this, task = std::move(task), client]() mutable {
    metrics_->RecordNodeCompletion(config_.worker_node, simulator_->Now());
    // Completion + piggybacked request for the next task.
    net::Packet completion;
    completion.op = net::OpCode::kTaskCompletion;
    completion.dst = scheduler_;
    completion.tasks = {std::move(task)};
    completion.client_addr = client;
    completion.exec_props = config_.exec_props;
    completion.rtrv_prio = 1;
    last_request_time_ = simulator_->Now();
    network_->Send(node_id_, std::move(completion));
    pull_timer_.ScheduleAfter(config_.request_timeout);
  });
}

}  // namespace draconis::cluster
