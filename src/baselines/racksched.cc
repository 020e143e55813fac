#include "baselines/racksched.h"

#include <algorithm>
#include <utility>

#include "baselines/push_worker.h"
#include "common/check.h"

namespace draconis::baselines {

RackSchedProgram::RackSchedProgram(const RackSchedConfig& config)
    : config_(config), rng_(config.seed) {
  DRACONIS_CHECK(config.num_nodes >= 2);
  queue_len_.assign(config.num_nodes, 0);
  worker_of_node_.assign(config.num_nodes, net::kInvalidNode);
}

void RackSchedProgram::BindNode(size_t node, net::NodeId worker) {
  DRACONIS_CHECK(node < worker_of_node_.size());
  worker_of_node_[node] = worker;
}

void RackSchedProgram::OnPass(p4::PassContext& ctx, net::Packet pkt) {
  switch (pkt.op) {
    case net::OpCode::kCredit: {
      const size_t node = pkt.exec_props;
      DRACONIS_CHECK(node < queue_len_.size());
      queue_len_[node] = std::max(queue_len_[node] - 1, 0);
      ++counters_.credits;
      ctx.Drop(pkt, "info_credit_consumed");
      return;
    }
    case net::OpCode::kJobSubmission:
      break;
    default:
      if (pkt.dst == ctx.SwitchNode() || pkt.dst == net::kInvalidNode) {
        ctx.Drop(pkt, "info_unroutable");
      } else {
        ctx.Emit(std::move(pkt));
      }
      return;
  }

  DRACONIS_CHECK_MSG(pkt.tasks.size() == 1,
                     "RackSched routes one task per packet; batch at the client");
  if (pkt.tasks[0].meta.enqueue_time < 0) {
    pkt.tasks[0].meta.enqueue_time = ctx.Now();
  }

  // Power-of-two choices over node queue lengths.
  const size_t n = queue_len_.size();
  const size_t a = rng_.NextBelow(n);
  size_t b = rng_.NextBelow(n - 1);
  if (b >= a) {
    ++b;
  }
  const size_t chosen = queue_len_[a] <= queue_len_[b] ? a : b;
  queue_len_[chosen] += 1;
  ++counters_.tasks_pushed;

  net::Packet push = std::move(pkt);
  push.op = net::OpCode::kTaskAssignment;
  push.client_addr = push.client_addr != net::kInvalidNode ? push.client_addr : push.src;
  push.exec_props = static_cast<uint32_t>(chosen);
  push.dst = worker_of_node_[chosen];
  DRACONIS_CHECK_MSG(push.dst != net::kInvalidNode, "node not bound to a worker");
  ctx.Emit(std::move(push));
}

RackSchedWorker::RackSchedWorker(cluster::Testbed* testbed, size_t num_executors,
                                 uint32_t worker_node, net::NodeId scheduler,
                                 TimeNs dispatch_overhead, TimeNs pickup_overhead,
                                 IntraNodePolicy policy, bool report_latency)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      metrics_(testbed->metrics()),
      worker_node_(worker_node),
      scheduler_(scheduler),
      dispatch_overhead_(dispatch_overhead),
      pickup_overhead_(pickup_overhead),
      policy_(policy),
      report_latency_(report_latency) {
  DRACONIS_CHECK(metrics_ != nullptr);
  DRACONIS_CHECK(num_executors >= 1);
  node_id_ = network_->Register(this, net::HostProfile::Dpdk(TimeNs{150}));
  core_busy_.assign(num_executors, false);
}

void RackSchedWorker::HandlePacket(net::Packet pkt) {
  if (pkt.op != net::OpCode::kTaskAssignment) {
    return;
  }
  if (policy_ == IntraNodePolicy::kProcessorSharing) {
    // Admission is delayed by the dispatcher's overhead, then the task joins
    // the sharing pool immediately (preemptive: no queueing behind peers).
    simulator_->ScheduleAfter(dispatch_overhead_ + pickup_overhead_,
                      [this, pkt = std::move(pkt)]() mutable { PsAdmit(std::move(pkt)); });
    return;
  }
  queue_.push_back(std::move(pkt));
  TryDispatch();
}

double RackSchedWorker::PsRate() const {
  if (ps_tasks_.empty()) {
    return 1.0;
  }
  const double cores = static_cast<double>(core_busy_.size());
  const double tasks = static_cast<double>(ps_tasks_.size());
  return tasks <= cores ? 1.0 : cores / tasks;
}

void RackSchedWorker::PsAdmit(net::Packet pkt) {
  net::TaskInfo task = std::move(pkt.tasks.at(0));
  const TimeNs now = simulator_->Now();
  // A shared task holds exec_duration of core time, whatever the sharing rate.
  RecordPushedStart(*metrics_, task, now, now, task.meta.exec_duration);
  // Age the pool to `now` at the old rate before the membership changes.
  PsReschedule();
  PsTask entry;
  entry.remaining = static_cast<double>(task.meta.exec_duration);
  entry.client = pkt.client_addr;
  entry.task = std::move(task);
  ps_tasks_.push_back(std::move(entry));
  PsReschedule();
}

void RackSchedWorker::PsReschedule() {
  const TimeNs now = simulator_->Now();
  const double rate = PsRate();
  const double aged = static_cast<double>(now - ps_last_update_) * rate;
  // min(tasks, cores) cores were busy since the last update.
  metrics_->RecordBusyInterval(ps_last_update_, now,
                               std::min(ps_tasks_.size(), core_busy_.size()));
  ps_last_update_ = now;

  // Age everyone, completing any task whose work ran out.
  size_t next = ~size_t{0};
  double min_remaining = 0.0;
  for (size_t i = 0; i < ps_tasks_.size();) {
    ps_tasks_[i].remaining -= aged;
    if (ps_tasks_[i].remaining <= 0.5) {
      PsTask done = std::move(ps_tasks_[i]);
      ps_tasks_[i] = std::move(ps_tasks_.back());
      ps_tasks_.pop_back();
      Complete(std::move(done.task), done.client);
      continue;  // re-examine the element swapped into slot i
    }
    if (next == ~size_t{0} || ps_tasks_[i].remaining < min_remaining) {
      next = i;
      min_remaining = ps_tasks_[i].remaining;
    }
    ++i;
  }

  ps_completion_.Cancel();
  if (next != ~size_t{0}) {
    // The earliest finisher completes after remaining / (possibly new) rate.
    const auto wait = static_cast<TimeNs>(min_remaining / PsRate()) + 1;
    ps_completion_ =
        simulator_->ScheduleAfter(wait, [this] { PsReschedule(); }, sim::kCancellable);
  }
}

void RackSchedWorker::SendCredit(const net::TaskInfo& task) {
  net::Packet credit;
  credit.op = net::OpCode::kCredit;
  credit.dst = scheduler_;
  credit.exec_props = worker_node_;
  if (report_latency_ && task.meta.enqueue_time >= 0) {
    // Measured sojourn rides in summary_depth (plus its wire bytes) for the
    // latency-distribution-aware balancer.
    credit.summary_depth = static_cast<uint64_t>(simulator_->Now() - task.meta.enqueue_time);
    credit.payload_bytes = 8;
  }
  network_->Send(node_id_, std::move(credit));
}

void RackSchedWorker::Complete(net::TaskInfo task, net::NodeId client) {
  metrics_->RecordNodeCompletion(worker_node_, simulator_->Now());
  SendCredit(task);
  SendCompletionNotice(*network_, node_id_, client, std::move(task));
}

size_t RackSchedWorker::NextQueueIndex() const {
  if (policy_ != IntraNodePolicy::kEdf) {
    return 0;
  }
  // Earliest absolute deadline: enqueue_time + TPROPS microseconds (the
  // deadline tagger's encoding). Strict < keeps ties in arrival order, so an
  // untagged stream (TPROPS == 0) runs exactly cFCFS.
  size_t best = 0;
  TimeNs best_deadline = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const net::TaskInfo& task = queue_[i].tasks.at(0);
    const TimeNs deadline =
        task.meta.enqueue_time + static_cast<TimeNs>(task.tprops) * 1000;
    if (i == 0 || deadline < best_deadline) {
      best = i;
      best_deadline = deadline;
    }
  }
  return best;
}

void RackSchedWorker::TryDispatch() {
  if (queue_.empty()) {
    return;
  }
  for (size_t core = 0; core < core_busy_.size(); ++core) {
    if (core_busy_[core]) {
      continue;
    }
    const size_t index = NextQueueIndex();
    net::Packet pkt = std::move(queue_[index]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
    core_busy_[core] = true;

    net::TaskInfo task = std::move(pkt.tasks.at(0));
    const net::NodeId client = pkt.client_addr;
    // Intra-node scheduling adds its dispatch overhead before service starts.
    const TimeNs now = simulator_->Now();
    const TimeNs done =
        StartPushedTask(*metrics_, task, now, now + dispatch_overhead_ + pickup_overhead_);
    simulator_->ScheduleAt(done, [this, core, task = std::move(task), client]() mutable {
      FinishTask(core, std::move(task), client);
    });
    if (queue_.empty()) {
      return;
    }
  }
}

void RackSchedWorker::FinishTask(size_t core, net::TaskInfo task, net::NodeId client) {
  Complete(std::move(task), client);
  core_busy_[core] = false;
  TryDispatch();
}

}  // namespace draconis::baselines
