#include "baselines/r2p2.h"

#include <utility>

#include "baselines/push_worker.h"
#include "common/check.h"

namespace draconis::baselines {

R2P2Program::R2P2Program(const R2P2Config& config) : config_(config) {
  DRACONIS_CHECK(config.num_executors > 0 && config.jbsq_k >= 1);
  worker_of_slot_.assign(config.num_executors, net::kInvalidNode);
  outstanding_.assign(config.num_executors, 0);
  stale_view_.assign(config.num_executors, 0);
}

void R2P2Program::BindExecutor(size_t slot, net::NodeId worker) {
  DRACONIS_CHECK(slot < worker_of_slot_.size());
  worker_of_slot_[slot] = worker;
}

size_t R2P2Program::cp_credits() const {
  size_t free = 0;
  for (uint32_t o : outstanding_) {
    free += config_.jbsq_k - o;
  }
  return free;
}

void R2P2Program::OnPass(p4::PassContext& ctx, net::Packet pkt) {
  switch (pkt.op) {
    case net::OpCode::kCredit: {
      DRACONIS_CHECK(pkt.exec_props < config_.num_executors);
      DRACONIS_CHECK(outstanding_[pkt.exec_props] > 0);
      outstanding_[pkt.exec_props] -= 1;
      ++counters_.credits;
      ctx.Drop(pkt, "info_credit_consumed");
      return;
    }
    case net::OpCode::kJobSubmission:
      break;  // handled below
    default:
      // Plain forwarding for everything else; self-addressed packets are
      // unroutable.
      if (pkt.dst == ctx.SwitchNode() || pkt.dst == net::kInvalidNode) {
        ctx.Drop(pkt, "info_unroutable");
      } else {
        ctx.Emit(std::move(pkt));
      }
      return;
  }

  DRACONIS_CHECK_MSG(pkt.tasks.size() == 1,
                     "R2P2 routes one RPC per packet; batch at the client");
  if (pkt.tasks[0].meta.enqueue_time < 0) {
    pkt.tasks[0].meta.enqueue_time = ctx.Now();
  }

  // Join the queue that *looks* shortest (the selection view lags by up to
  // selection_staleness), subject to the exact bound. The argmin is
  // deterministic, so every task within one staleness window picks the same
  // "shortest" executor until its exact count hits the bound — the herding
  // the paper describes. If every queue is at the bound, keep circling until
  // a credit frees a slot — or the loopback port drops the task (§8.3).
  if (last_refresh_ < 0 || ctx.Now() - last_refresh_ >= config_.selection_staleness) {
    stale_view_ = outstanding_;
    last_refresh_ = ctx.Now();
  }
  const size_t n = outstanding_.size();
  size_t best = n;
  uint32_t best_count = ~0u;
  for (size_t i = 0; i < n; ++i) {
    if (outstanding_[i] >= config_.jbsq_k) {
      continue;  // the bound is enforced on the exact count
    }
    const uint32_t count = stale_view_[i];
    if (count < best_count) {
      best = i;
      best_count = count;
      if (count == 0) {
        break;
      }
    }
  }
  if (best == n) {
    ++counters_.credit_wait_recirculations;
    ctx.Recirculate(std::move(pkt));
    return;
  }
  const auto slot = static_cast<uint32_t>(best);
  outstanding_[slot] += 1;
  ++counters_.tasks_pushed;

  net::Packet push = std::move(pkt);
  push.op = net::OpCode::kTaskAssignment;
  push.client_addr = push.client_addr != net::kInvalidNode ? push.client_addr : push.src;
  push.exec_props = slot;
  push.dst = worker_of_slot_[slot];
  DRACONIS_CHECK_MSG(push.dst != net::kInvalidNode, "executor slot not bound to a worker");
  ctx.Emit(std::move(push));
}

R2P2Worker::R2P2Worker(cluster::Testbed* testbed, std::vector<size_t> slots,
                       uint32_t worker_node, net::NodeId scheduler, TimeNs pickup_overhead)
    : simulator_(&testbed->simulator()),
      network_(&testbed->network()),
      metrics_(testbed->metrics()),
      worker_node_(worker_node),
      scheduler_(scheduler),
      pickup_overhead_(pickup_overhead) {
  DRACONIS_CHECK(metrics_ != nullptr);
  node_id_ = network_->Register(this, net::HostProfile::Dpdk(TimeNs{150}));
  slots_.reserve(slots.size());
  for (size_t slot : slots) {
    ExecutorSlot s;
    s.global_slot = slot;
    slots_.push_back(std::move(s));
  }
}

void R2P2Worker::HandlePacket(net::Packet pkt) {
  if (pkt.op != net::OpCode::kTaskAssignment) {
    return;
  }
  // Find the local executor slot this push targets.
  const size_t global = pkt.exec_props;
  for (size_t local = 0; local < slots_.size(); ++local) {
    if (slots_[local].global_slot == global) {
      slots_[local].queue.push_back(std::move(pkt));
      TryRun(local);
      return;
    }
  }
  DRACONIS_CHECK_MSG(false, "task pushed to a slot this worker does not host");
}

void R2P2Worker::TryRun(size_t local) {
  ExecutorSlot& slot = slots_[local];
  if (slot.busy || slot.queue.empty()) {
    return;
  }
  slot.busy = true;
  net::Packet pkt = std::move(slot.queue.front());
  slot.queue.pop_front();

  net::TaskInfo task = std::move(pkt.tasks.at(0));
  const net::NodeId client = pkt.client_addr;
  const TimeNs now = simulator_->Now();
  const TimeNs done = StartPushedTask(*metrics_, task, now, now + pickup_overhead_);
  simulator_->ScheduleAt(done, [this, local, task = std::move(task), client]() mutable {
    FinishTask(local, std::move(task), client);
  });
}

void R2P2Worker::FinishTask(size_t local, net::TaskInfo task, net::NodeId client) {
  ExecutorSlot& slot = slots_[local];
  metrics_->RecordNodeCompletion(worker_node_, simulator_->Now());

  // Credit back to the switch so it can hand this executor more work.
  net::Packet credit;
  credit.op = net::OpCode::kCredit;
  credit.dst = scheduler_;
  credit.exec_props = static_cast<uint32_t>(slot.global_slot);
  network_->Send(node_id_, std::move(credit));

  SendCompletionNotice(*network_, node_id_, client, std::move(task));

  slot.busy = false;
  TryRun(local);
}

}  // namespace draconis::baselines
