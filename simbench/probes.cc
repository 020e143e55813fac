#include "probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/metrics.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/draconis_program.h"
#include "core/policy.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "sim/simulator.h"
#include "stats/histogram.h"

namespace draconis::simbench {

namespace {

// Calls per probe: enough that one probe takes a few hundred milliseconds,
// fixed so that allocations per call repeat exactly.
constexpr uint64_t kEventCalls = 2'000'000;
constexpr uint64_t kHopCalls = 1'000'000;
constexpr uint64_t kCancelCalls = 1'000'000;
constexpr uint64_t kPassCalls = 1'000'000;
constexpr uint64_t kMetricsCalls = 1'000'000;
constexpr uint64_t kHistogramCalls = 4'000'000;

// Switch passes issued at one simulated instant before the probe lets the
// simulator deliver what they emitted. Real runs spread passes out in time;
// a burst as large as the executor fleet would pile tens of thousands of
// same-instant events into the event queue, which no workload does.
constexpr uint64_t kBurst = 64;

// Fabric latency range of one hop (propagation plus jitter).
constexpr TimeNs kHopMin = 1100;
constexpr TimeNs kHopSpread = 2300;

// Times `body`, which returns the number of calls it made.
template <typename Body>
ProbeResult Measure(Body&& body) {
  const uint64_t allocs_before = AllocCount();
  const auto start = std::chrono::steady_clock::now();
  const uint64_t calls = body();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const uint64_t allocs = AllocCount() - allocs_before;
  ProbeResult r;
  r.calls = calls;
  r.ns_per_call = calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
  r.allocs_per_call =
      calls == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(calls);
  return r;
}

net::Packet TaskPacket(size_t tasks) {
  net::Packet pkt;
  pkt.op = net::OpCode::kTaskAssignment;
  pkt.tasks.resize(tasks);
  return pkt;
}

// Self-re-arming one-shot events, each carrying a packet in its closure the
// way Network::Send's delivery closures do.
class OneShotChains {
 public:
  OneShotChains(sim::Simulator* sim, uint64_t limit) : sim_(sim), limit_(limit) {}

  void Arm(net::Packet pkt) {
    const TimeNs delay = kHopMin + static_cast<TimeNs>(rng_.NextBelow(kHopSpread));
    sim_->ScheduleAfter(delay, [this, pkt = std::move(pkt)]() mutable { Fire(std::move(pkt)); });
  }

  uint64_t fired() const { return fired_; }

 private:
  void Fire(net::Packet pkt) {
    if (++fired_ < limit_) {
      Arm(std::move(pkt));
    }
  }

  sim::Simulator* sim_;
  uint64_t limit_;
  uint64_t fired_ = 0;
  Rng rng_{1};
};

// A fabric of endpoints that pass every delivered packet on to another
// endpoint until `limit` hops have been delivered.
class HopRing {
 public:
  HopRing(size_t nodes, uint64_t limit) : network_(&sim_, net::NetworkConfig{}), limit_(limit) {
    sinks_.reserve(nodes);
    for (size_t i = 0; i < nodes; ++i) {
      sinks_.push_back(std::make_unique<Sink>(this));
      sinks_.back()->id = network_.Register(sinks_.back().get(), net::HostProfile::Dpdk(150));
    }
  }

  void Launch(net::Packet pkt, size_t from) {
    pkt.dst = Next(from);
    ++sent_;
    network_.Send(static_cast<net::NodeId>(from), std::move(pkt));
  }

  sim::Simulator& sim() { return sim_; }
  uint64_t delivered() const { return delivered_; }

 private:
  struct Sink : net::Endpoint {
    explicit Sink(HopRing* owner) : ring(owner) {}
    void HandlePacket(net::Packet pkt) override { ring->Deliver(id, std::move(pkt)); }
    HopRing* ring;
    net::NodeId id = net::kInvalidNode;
  };

  // A stride coprime to most ring sizes spreads traffic over all hosts.
  net::NodeId Next(size_t from) const {
    return static_cast<net::NodeId>((from + 7919) % sinks_.size());
  }

  void Deliver(net::NodeId at, net::Packet pkt) {
    ++delivered_;
    if (sent_ < limit_) {
      Launch(std::move(pkt), at);
    }
  }

  sim::Simulator sim_;
  net::Network network_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  uint64_t limit_;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
};

// An endpoint that drops what it receives (executors and clients facing
// the switch probes).
struct DiscardingSink : net::Endpoint {
  void HandlePacket(net::Packet pkt) override { (void)pkt; }
};

// A Draconis switch on its own fabric, with `executors` executor endpoints
// and one client endpoint.
class SwitchBench {
 public:
  explicit SwitchBench(size_t executors)
      : network_(&sim_, net::NetworkConfig{}),
        program_(&policy_, core::DraconisConfig{}),
        pipeline_(&sim_, &program_, p4::PipelineConfig{}) {
    switch_node_ = pipeline_.AttachNetwork(&network_);
    sinks_.resize(executors + 1);
    for (DiscardingSink& sink : sinks_) {
      nodes_.push_back(network_.Register(&sink, net::HostProfile::Dpdk(150)));
    }
  }

  size_t executors() const { return nodes_.size() - 1; }

  void Request(size_t executor) {
    net::Packet pkt;
    pkt.op = net::OpCode::kTaskRequest;
    pkt.src = nodes_[executor];
    pkt.dst = switch_node_;
    pkt.rtrv_prio = 1;
    pipeline_.HandlePacket(std::move(pkt));
  }

  void Submit(uint32_t jid) {
    net::Packet pkt;
    pkt.op = net::OpCode::kJobSubmission;
    pkt.src = nodes_.back();
    pkt.dst = switch_node_;
    pkt.jid = jid;
    pkt.tasks.resize(1);
    pkt.tasks[0].id = net::TaskId{0, jid, 0};
    pkt.tasks[0].meta.first_submit_time = sim_.Now();
    pkt.tasks[0].meta.submit_time = sim_.Now();
    pipeline_.HandlePacket(std::move(pkt));
  }

  // Delivers everything the switch emitted so far.
  void Drain() { sim_.RunAll(); }

  const core::DraconisCounters& counters() const { return program_.counters(); }

 private:
  sim::Simulator sim_;
  net::Network network_;
  core::FcfsPolicy policy_;
  core::DraconisProgram program_;
  p4::SwitchPipeline pipeline_;
  net::NodeId switch_node_ = net::kInvalidNode;
  std::vector<DiscardingSink> sinks_;
  std::vector<net::NodeId> nodes_;
};

}  // namespace

ProbeShape ShapeOf(const cluster::ExperimentConfig& config) {
  ProbeShape shape;
  const std::vector<topology::RackSpec> racks = cluster::EffectiveRackSpecs(config);
  for (const topology::RackSpec& rack : racks) {
    shape.executors += rack.executors();
  }
  shape.nodes = shape.executors + config.num_clients + racks.size();
  const double tps = config.workload.tasks_per_second;
  shape.tasks = static_cast<size_t>(tps * ToSeconds(config.workload.duration));
  const TimeNs service = config.workload.service.Mean();
  shape.outstanding =
      std::max<size_t>(1, static_cast<size_t>(tps * ToSeconds(service + FromMicros(10))));
  shape.pull_backoff = config.executor_template.max_retry;
  shape.task_timeout = std::max(
      static_cast<TimeNs>(config.timeout_multiplier * static_cast<double>(service)),
      config.timeout_floor);
  shape.task_gap = std::max<TimeNs>(1, static_cast<TimeNs>(1e9 / tps));
  return shape;
}

ProbeResult ProbeOneShot(const ProbeShape& shape) {
  sim::Simulator sim;
  OneShotChains chains(&sim, kEventCalls);
  for (size_t i = 0; i < shape.nodes; ++i) {
    chains.Arm(TaskPacket(1));
  }
  return Measure([&] {
    sim.RunAll();
    return chains.fired();
  });
}

ProbeResult ProbeTimer(const ProbeShape& shape) {
  sim::Simulator sim;
  Rng rng(2);
  const TimeNs backoff = std::max<TimeNs>(2, shape.pull_backoff);
  uint64_t fired = 0;
  std::vector<std::unique_ptr<sim::Timer>> timers;
  timers.reserve(shape.executors);
  for (size_t i = 0; i < shape.executors; ++i) {
    timers.push_back(std::make_unique<sim::Timer>());
    sim::Timer* timer = timers.back().get();
    timer->Bind(&sim, [&, timer] {
      if (++fired < kEventCalls) {
        timer->ScheduleAfter(backoff / 2 + static_cast<TimeNs>(rng.NextBelow(backoff)));
      }
    });
    timer->ScheduleAt(static_cast<TimeNs>(rng.NextBelow(backoff)));
  }
  return Measure([&] {
    sim.RunAll();
    return fired;
  });
}

ProbeResult ProbeCancel(const ProbeShape& shape) {
  sim::Simulator sim;
  std::vector<sim::EventHandle> pending(shape.outstanding);
  uint64_t calls = 0;
  uint64_t sink = 0;
  size_t next = 0;
  sim::Timer driver;
  driver.Bind(&sim, [&] {
    pending[next].Cancel();
    // Captures a pointer and a TaskId, like the client's timeout closure.
    const net::TaskId id{0, static_cast<uint32_t>(calls), 0};
    pending[next] =
        sim.ScheduleAfter(shape.task_timeout, [&sink, id] { sink += id.jid; }, sim::kCancellable);
    next = (next + 1) % pending.size();
    if (++calls < kCancelCalls) {
      driver.ScheduleAfter(shape.task_gap);
    }
  });
  driver.ScheduleAt(0);
  return Measure([&] {
    sim.RunAll();
    return calls;
  });
}

ProbeResult ProbeHop(const ProbeShape& shape, size_t tasks_per_packet) {
  HopRing ring(shape.nodes, kHopCalls);
  const size_t chains = std::min(shape.executors, shape.nodes);
  for (size_t i = 0; i < chains; ++i) {
    ring.Launch(TaskPacket(tasks_per_packet), i);
  }
  return Measure([&] {
    ring.sim().RunAll();
    return ring.delivered();
  });
}

ProbeResult ProbeEmptyPull(const ProbeShape& shape) {
  SwitchBench bench(shape.executors);
  const ProbeResult result = Measure([&] {
    uint64_t calls = 0;
    while (calls < kPassCalls) {
      for (size_t i = 0; i < kBurst; ++i, ++calls) {
        bench.Request(calls % bench.executors());
      }
      bench.Drain();
    }
    return calls;
  });
  DRACONIS_CHECK_MSG(bench.counters().noops_sent == result.calls,
                     "an empty-queue request was not answered with a no-op");
  return result;
}

ProbeResult ProbeAssign(const ProbeShape& shape) {
  SwitchBench bench(shape.executors);
  const ProbeResult result = Measure([&] {
    uint64_t calls = 0;
    while (calls < kPassCalls / 2) {
      for (size_t i = 0; i < kBurst; ++i, ++calls) {
        bench.Submit(static_cast<uint32_t>(calls));
        bench.Request(calls % bench.executors());
      }
      bench.Drain();
    }
    return calls;
  });
  DRACONIS_CHECK_MSG(bench.counters().tasks_assigned == result.calls,
                     "a submitted task was not assigned to the next request");
  return result;
}

ProbeResult ProbeMetrics(const ProbeShape& shape) {
  const size_t per_hub = std::max<size_t>(1, shape.tasks);
  return Measure([&] {
    uint64_t calls = 0;
    while (calls < kMetricsCalls) {
      cluster::MetricsHub hub(0, kSecond);
      for (size_t j = 0; j < per_hub; ++j, ++calls) {
        // Ids shaped like the clients' <uid, jid, tid>: 4 clients, 10-task jobs.
        net::TaskInfo task;
        task.id = net::TaskId{static_cast<uint32_t>(j % 4), static_cast<uint32_t>(j / 40),
                              static_cast<uint32_t>((j / 4) % 10)};
        const TimeNs now = static_cast<TimeNs>(j) * shape.task_gap % kSecond;
        task.meta.first_submit_time = now;
        task.meta.enqueue_time = now;
        if (hub.FirstExecution(task.id)) {
          hub.RecordAssignment(task, now + 2000);
          hub.RecordExecutionStart(task, now + 2200);
        }
      }
    }
    return calls;
  });
}

ProbeResult ProbeHistogram() {
  Rng rng(3);
  std::vector<TimeNs> values(1 << 16);
  for (TimeNs& v : values) {
    v = static_cast<TimeNs>(rng.NextExponential(20000.0));
  }
  stats::Histogram histogram;
  return Measure([&] {
    for (uint64_t i = 0; i < kHistogramCalls; ++i) {
      histogram.Record(values[i & (values.size() - 1)]);
    }
    return histogram.count();
  });
}

}  // namespace draconis::simbench
