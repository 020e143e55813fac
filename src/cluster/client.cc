#include "cluster/client.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace draconis::cluster {

Client::Client(Testbed* testbed, const ClientConfig& config)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      metrics_(testbed->metrics()),
      recorder_(testbed->recorder()),
      config_(config) {
  DRACONIS_CHECK(metrics_ != nullptr);
  DRACONIS_CHECK_MSG(config_.timeout_floor > 0, "a zero timeout re-arms without advancing time");
  DRACONIS_CHECK(config_.timeout_multiplier >= 0 && std::isfinite(config_.timeout_multiplier));
  if (config_.max_tasks_per_packet == 0) {
    config_.max_tasks_per_packet = net::MaxTasksPerPacket();
  }
  node_id_ = network_->Register(this, config.host_profile);
}

uint32_t Client::SubmitJob(const std::vector<TaskSpec>& specs) {
  DRACONIS_CHECK_MSG(scheduler_ != net::kInvalidNode, "client has no scheduler configured");
  DRACONIS_CHECK(!specs.empty());
  const uint32_t jid = next_jid_++;
  const TimeNs now = simulator_->Now();

  std::vector<net::TaskInfo> tasks;
  tasks.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    net::TaskInfo task;
    task.id = net::TaskId{config_.uid, jid, static_cast<uint32_t>(i)};
    if (specs[i].oversized_param_bytes > 0) {
      // §4.4: submit a transmission function; the executor fetches the real
      // parameters (FN_PAR carries their size).
      task.fn_id = net::kTransmissionFnId;
      task.fn_par = specs[i].oversized_param_bytes;
    } else {
      task.fn_id = specs[i].fn_id;
      task.fn_par = specs[i].fn_par;
    }
    task.tprops = specs[i].tprops;
    task.meta.exec_duration = specs[i].duration;
    task.meta.first_submit_time = now;
    task.meta.submit_time = now;
    metrics_->RecordSubmission(task);
    if (recorder_ != nullptr && recorder_->Sampled(task.id)) {
      recorder_->Record(task.id, trace::Kind::kSubmit, now, now, specs.size(), node_id_);
    }
    if (!config_.fire_and_forget) {
      ArmTimeout(task);
    }
    tasks.push_back(std::move(task));
  }
  SendTasks(std::move(tasks));
  return jid;
}

void Client::SendTasks(std::vector<net::TaskInfo> tasks) {
  // Split the job across as many job_submission packets as the MTU requires
  // (§4.3 "Handling Large Jobs").
  size_t offset = 0;
  while (offset < tasks.size()) {
    const size_t n = std::min(config_.max_tasks_per_packet, tasks.size() - offset);
    net::Packet pkt;
    pkt.op = net::OpCode::kJobSubmission;
    // Multi-rack placement routes each submission packet (the home ToR unless
    // its queue depth tripped the overflow watermark); legacy clients go
    // straight to their scheduler.
    pkt.dst = config_.router != nullptr ? config_.router->Route(scheduler_) : scheduler_;
    pkt.uid = config_.uid;
    pkt.jid = tasks[offset].id.jid;
    pkt.tasks.assign(std::make_move_iterator(tasks.begin() + offset),
                     std::make_move_iterator(tasks.begin() + offset + n));
    if (recorder_ != nullptr) {
      for (const net::TaskInfo& t : pkt.tasks) {
        if (recorder_->Sampled(t.id)) {
          recorder_->Record(t.id, trace::Kind::kClientSend, simulator_->Now(),
                            simulator_->Now(), pkt.tasks.size(), pkt.dst,
                            t.meta.attempt, 0);
        }
      }
    }
    network_->Send(node_id_, std::move(pkt));
    offset += n;
  }
}

void Client::HandlePacket(net::Packet pkt) {
  switch (pkt.op) {
    case net::OpCode::kJobAck:
      return;  // informational only
    case net::OpCode::kErrorQueueFull: {
      // Retry the rejected tasks after a short wait (§4.3).
      std::vector<net::TaskInfo> retry;
      retry.reserve(pkt.tasks.size());
      for (net::TaskInfo& task : pkt.tasks) {
        auto it = outstanding_.find(task.id);
        if (it == outstanding_.end()) {
          continue;  // completed in the meantime (stale duplicate)
        }
        metrics_->RecordQueueFullRetry();
        task.meta.submit_time = simulator_->Now() + config_.queue_full_retry_wait;
        task.meta.attempt += 1;
        if (recorder_ != nullptr && recorder_->Sampled(task.id)) {
          recorder_->Record(task.id, trace::Kind::kQueueFullRetry, simulator_->Now(),
                            simulator_->Now(), config_.queue_full_retry_wait, node_id_,
                            task.meta.attempt, 0);
        }
        retry.push_back(task);
      }
      if (!retry.empty()) {
        simulator_->ScheduleAfter(config_.queue_full_retry_wait,
                          [this, retry = std::move(retry)]() mutable {
                            SendTasks(std::move(retry));
                          });
      }
      return;
    }
    case net::OpCode::kParamFetch: {
      // §4.4: an executor asks for a transmission-function task's real
      // parameters; reply with the bulk payload (stateless — the fetch
      // carries the TASK_INFO, whose FN_PAR is the parameter size).
      DRACONIS_CHECK(!pkt.tasks.empty());
      net::Packet data;
      data.op = net::OpCode::kParamData;
      data.dst = pkt.src;
      data.tasks = {pkt.tasks[0]};
      data.payload_bytes = static_cast<uint32_t>(pkt.tasks[0].fn_par);
      network_->Send(node_id_, std::move(data));
      return;
    }
    case net::OpCode::kCompletionNotice: {
      DRACONIS_CHECK(!pkt.tasks.empty());
      const net::TaskInfo& task = pkt.tasks[0];
      auto it = outstanding_.find(task.id);
      if (it == outstanding_.end()) {
        // Duplicate completion after a timeout resubmission. (Fire-and-forget
        // clients track nothing, so every notice would land here — skip.)
        if (!config_.fire_and_forget && recorder_ != nullptr &&
            recorder_->Sampled(task.id)) {
          recorder_->Record(task.id, trace::Kind::kDuplicateComplete, simulator_->Now(),
                            simulator_->Now(), 0, node_id_, task.meta.attempt, 0);
        }
        return;
      }
      it->second.timeout.Cancel();
      const TimeNs now = simulator_->Now();
      metrics_->RecordEndToEnd(task, now);
      ++completions_;
      consecutive_timeouts_ = 0;
      if (recorder_ != nullptr && recorder_->Sampled(task.id)) {
        recorder_->Record(task.id, trace::Kind::kComplete, now, now, 0, node_id_,
                          task.meta.attempt, 0);
      }
      if (it->second.hedged) {
        // The race is decided: cancel the losing replica client-side. It may
        // still be queued or executing — its eventual notice lands in the
        // duplicate-suppression branch above, and its execution (if any) is
        // charged to wasted work by the executor.
        const uint32_t loser = task.meta.attempt >= it->second.hedge_attempt
                                   ? it->second.hedge_attempt - 1
                                   : it->second.hedge_attempt;
        if (task.meta.attempt >= it->second.hedge_attempt) {
          metrics_->RecordHedgeWin();
        }
        ++cancellations_;
        metrics_->RecordCancellation();
        if (recorder_ != nullptr && recorder_->Sampled(task.id)) {
          recorder_->Record(task.id, trace::Kind::kHedgeCancel, now, now, 0, node_id_,
                            loser, 0);
        }
      }
      outstanding_.erase(it);
      if (on_completion_) {
        on_completion_(task, now);
      }
      return;
    }
    default:
      return;
  }
}

bool Client::HedgeTask(net::TaskId id, TimeNs resampled_duration) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end() || it->second.hedged) {
    // Completed in the meantime, or already hedged (one hedge per task: a
    // second duplicate only adds wasted work, never latency).
    return false;
  }
  const TimeNs now = simulator_->Now();
  net::TaskInfo task = it->second.task;
  task.meta.submit_time = now;
  task.meta.attempt += 1;
  if (resampled_duration >= 0) {
    // Executor-side straggler model (docs/dag.md): the replica re-draws its
    // service time, so a pathological draw on the original placement does
    // not doom the duplicate.
    task.meta.exec_duration = resampled_duration;
  }
  ++hedges_;
  metrics_->RecordHedge();
  if (recorder_ != nullptr && recorder_->Sampled(id)) {
    recorder_->Record(id, trace::Kind::kHedgeLaunch, now, now,
                      static_cast<uint64_t>(now - task.meta.first_submit_time), node_id_,
                      task.meta.attempt, 0);
  }
  it->second.hedged = true;
  it->second.hedge_attempt = task.meta.attempt;
  // Track the duplicate as the live attempt: a later timeout resubmits from
  // it (attempt + 2) with the usual exponential backoff.
  it->second.task = task;
  it->second.timeout.Cancel();
  it->second.timeout = simulator_->ScheduleAfter(
      TimeoutFor(task), [this, id] { OnTimeout(id); }, sim::kCancellable);
  SendTasks({std::move(task)});
  return true;
}

bool Client::CancelTask(net::TaskId id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    // Already completed (or cancelled): strictly a no-op so late cancels can
    // never double-count (tests/cluster_test.cc pins this).
    return false;
  }
  it->second.timeout.Cancel();
  const TimeNs now = simulator_->Now();
  ++cancellations_;
  metrics_->RecordCancellation();
  if (recorder_ != nullptr && recorder_->Sampled(id)) {
    recorder_->Record(id, trace::Kind::kHedgeCancel, now, now, 1, node_id_,
                      it->second.task.meta.attempt, 0);
  }
  outstanding_.erase(it);
  return true;
}

TimeNs Client::TimeoutFor(const net::TaskInfo& task) const {
  // Timeouts saturate at 2^62 ns (about 146 years), past the end of any run,
  // so a huge multiplier (1e9 stands for "never resubmit" in fig13) cannot
  // wrap, and now + timeout still fits in TimeNs.
  constexpr TimeNs kMaxTimeout = TimeNs{1} << 62;
  const double scaled = config_.timeout_multiplier * static_cast<double>(task.meta.exec_duration);
  const TimeNs base = scaled >= static_cast<double>(kMaxTimeout)
                          ? kMaxTimeout
                          : std::max(static_cast<TimeNs>(scaled), config_.timeout_floor);
  // Exponential backoff across resubmissions so a congested scheduler is not
  // fed an unbounded duplicate storm.
  const uint32_t shift = std::min<uint32_t>(task.meta.attempt, 6);
  return base > kMaxTimeout >> shift ? kMaxTimeout : base << shift;
}

void Client::ArmTimeout(const net::TaskInfo& task) {
  Pending pending;
  pending.task = task;
  pending.timeout = simulator_->ScheduleAfter(
      TimeoutFor(task), [this, id = task.id] { OnTimeout(id); },
      sim::kCancellable);
  outstanding_[task.id] = std::move(pending);
}

void Client::OnTimeout(net::TaskId id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    return;
  }
  // The task (or its completion) was lost: resubmit it as a fresh
  // single-task job_submission, keeping first_submit_time so the measured
  // latency includes the loss (§8.3).
  metrics_->RecordTimeoutResubmission();
  // §3.3: a timeout is evidence against the *current* scheduler only when the
  // timed-out attempt was sent after the last rehome — stale timeouts of
  // attempts addressed to the previous scheduler must not flip the client
  // back toward a dead switch.
  if (standby_ != net::kInvalidNode && it->second.task.meta.submit_time >= last_rehome_time_ &&
      ++consecutive_timeouts_ >= config_.rehome_after_timeouts) {
    // The scheduler looks dead from here; resubmit toward the standby. The
    // swap ping-pongs, so a spurious rehome self-corrects on the next streak.
    consecutive_timeouts_ = 0;
    last_rehome_time_ = simulator_->Now();
    std::swap(scheduler_, standby_);
    ++rehomes_;
    metrics_->RecordClientRehome();
    if (recorder_ != nullptr) {
      recorder_->RecordGlobal(trace::Kind::kRehome, simulator_->Now(), scheduler_, node_id_);
    }
  }
  net::TaskInfo task = it->second.task;
  task.meta.submit_time = simulator_->Now();
  task.meta.attempt += 1;
  if (recorder_ != nullptr && recorder_->Sampled(task.id)) {
    recorder_->Record(task.id, trace::Kind::kTimeoutResubmit, simulator_->Now(),
                      simulator_->Now(), 0, node_id_, task.meta.attempt, 0);
  }
  it->second.task = task;
  it->second.timeout = simulator_->ScheduleAfter(
      TimeoutFor(task), [this, id] { OnTimeout(id); }, sim::kCancellable);
  SendTasks({std::move(task)});
}

}  // namespace draconis::cluster
