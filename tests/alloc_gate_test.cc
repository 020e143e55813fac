// Allocation gate: bounds heap allocations per executed event over a fixed
// Fig. 5a-shaped run. The count is exact and deterministic (the run and the
// standard library's allocation pattern are both fixed), so the bound needs
// no noise margin for timing; it does not look at wall time at all.
//
// The run is dominated by idle executors polling the switch and getting a
// no-op back (paper §3.1). That path schedules its packet events with
// captures that fit std::function's own buffer (net/packet_pool.h) and
// tracks register accesses inline (p4/register.h), so it allocates nothing;
// what remains is per-task work and set-up. A change that boxes a packet
// event again costs several allocations per idle poll and fails here.
//
// The same run also bounds the event queue's garbage: keys popped without
// running an event, per executed event. An idle executor re-arms its pull
// timer to a 1 ms watchdog and, microseconds later, to a short retry; the
// timer keeps the watchdog's deadline on its earlier key instead of queuing
// a second one (sim/simulator.h), so nearly no watchdog key is left to be
// discarded. Like the allocation count, the figure is exact.
//
// This executable replaces the global allocation operators, so it is its
// own test binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/experiment.h"
#include "workload/workload.h"

namespace {
uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(std::max<std::size_t>(size, 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (std::max<std::size_t>(size, 1) + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace draconis {
namespace {

// The shrunk Fig. 5a point of tests/determinism_test.cc (Fig05aMiniConfig):
// Draconis on 4x4 executors, fixed 500 us tasks, open-loop load.
cluster::ExperimentConfig Fig05aMiniConfig() {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(15);
  config.max_tasks_per_packet = 1;
  config.timeout_multiplier = 5.0;
  config.seed = 42;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = 100e3 * 16.0 / 160.0;
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 10;
  config.workload.service = workload::ServiceTime::Fixed(FromMicros(500));
  config.workload.seed = config.seed;
  return config;
}

// The pooled packet path measures 2,524 allocations over 529,721 events
// (0.0048 per event), nearly all of them set-up and per-task work; the
// boxed-closure path it replaced measured 1.33 per event. The bound is about
// four times the measured rate: room for set-up and per-task work to grow,
// and far too little for an idle poll that allocates again.
constexpr double kMaxAllocsPerEvent = 0.02;

TEST(AllocGateTest, Fig05aShapedRunStaysUnderTheAllocationBound) {
  const cluster::ExperimentConfig config = Fig05aMiniConfig();
  const uint64_t before = g_allocs;
  const cluster::ExperimentResult result = cluster::RunExperiment(config);
  const uint64_t allocs = g_allocs - before;

  ASSERT_GT(result.events_executed, 0u);
  // The run the bound was measured on: the pinned Fig. 5a mini golden.
  EXPECT_EQ(result.metrics->tasks_completed(), 130u);
  const double per_event =
      static_cast<double>(allocs) / static_cast<double>(result.events_executed);
  EXPECT_LE(per_event, kMaxAllocsPerEvent)
      << allocs << " allocations over " << result.events_executed << " events";
}

// Timers that keep a later deadline on their earlier queued key discard
// 1,149 keys over 529,721 events (0.0022 per event); queuing a fresh key on
// every re-arm discarded 86,803 (0.164), one superseded watchdog per idle
// poll. The bound sits between the two, well clear of both.
constexpr double kMaxDiscardedKeysPerEvent = 0.02;

TEST(AllocGateTest, Fig05aShapedRunDiscardsFewQueueKeys) {
  const cluster::ExperimentResult result = cluster::RunExperiment(Fig05aMiniConfig());
  ASSERT_GT(result.events_executed, 0u);
  EXPECT_EQ(result.metrics->tasks_completed(), 130u);
  const double per_event = static_cast<double>(result.discarded_keys) /
                           static_cast<double>(result.events_executed);
  EXPECT_LE(per_event, kMaxDiscardedKeysPerEvent)
      << result.discarded_keys << " discarded keys over " << result.events_executed
      << " events";
}

}  // namespace
}  // namespace draconis
