// Reproducibility guarantees: identical configurations produce bit-identical
// results, different seeds produce different (but statistically similar)
// runs, and the simulated clock never observes wall time.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "common/rng.h"
#include "fault/plan.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace draconis {
namespace {

cluster::ExperimentConfig MakeConfig(uint64_t seed) {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(20);
  config.max_tasks_per_packet = 1;
  config.seed = seed;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = 0.6 * 16 / 100e-6;
  config.workload.duration = config.horizon;
  config.workload.service = workload::ServiceTime::PaperExponential();
  config.workload.seed = seed;
  return config;
}

TEST(DeterminismTest, IdenticalConfigsProduceIdenticalResults) {
  cluster::ExperimentResult a = RunExperiment(MakeConfig(5));
  cluster::ExperimentResult b = RunExperiment(MakeConfig(5));

  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->sched_delay().Percentile(q), b.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
  EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
  EXPECT_EQ(a.counters.noops_sent, b.counters.noops_sent);
}

TEST(DeterminismTest, DifferentSeedsDifferButAgreeStatistically) {
  cluster::ExperimentResult a = RunExperiment(MakeConfig(5));
  cluster::ExperimentResult b = RunExperiment(MakeConfig(6));

  // Different event interleavings...
  EXPECT_NE(a.switch_counters.passes, b.switch_counters.passes);
  // ...but the same physics: medians within 2x of each other.
  const double ma = static_cast<double>(a.metrics->sched_delay().Median());
  const double mb = static_cast<double>(b.metrics->sched_delay().Median());
  EXPECT_LT(ma / mb, 2.0);
  EXPECT_LT(mb / ma, 2.0);
}

TEST(DeterminismTest, GoogleTraceGenerationIsSeedStable) {
  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kGoogleTrace;
  spec.tasks_per_second = 200000.0;
  spec.duration = FromMillis(50);
  spec.priority_levels = 4;
  spec.seed = 33;
  workload::JobStream a = spec.Generate();
  workload::JobStream b = spec.Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].at, b[i].at);
    ASSERT_EQ(a[i].tasks.size(), b[i].tasks.size());
    for (size_t t = 0; t < a[i].tasks.size(); ++t) {
      ASSERT_EQ(a[i].tasks[t].duration, b[i].tasks[t].duration);
      ASSERT_EQ(a[i].tasks[t].tprops, b[i].tasks[t].tprops);
    }
  }
}

TEST(DeterminismTest, ParallelPriorityStagesMatchProbingResults) {
  // Both retrieval layouts implement the same service discipline; on the
  // same workload they must schedule every task (completions equal), with
  // the parallel layout recirculating strictly less.
  auto run = [](bool parallel) {
    cluster::ExperimentConfig config = MakeConfig(9);
    config.policy = cluster::PolicyKind::kPriority;
    config.priority_levels = 4;
    config.workload.taggers.push_back(workload::TaggerStage::Priority({1, 1, 1, 1}, 4));
    // (parallel stages require the shadow-copy dequeue, the default)
    config.parallel_priority_stages = parallel;
    return cluster::RunExperiment(config);
  };
  cluster::ExperimentResult probing = run(false);
  cluster::ExperimentResult parallel = run(true);
  // Nearly everything completes (a sliver may be in flight at the horizon).
  EXPECT_GE(probing.metrics->tasks_completed(),
            probing.metrics->tasks_submitted() * 98 / 100);
  EXPECT_GE(parallel.metrics->tasks_completed(),
            parallel.metrics->tasks_submitted() * 98 / 100);
  EXPECT_LT(parallel.switch_counters.recirculations,
            probing.switch_counters.recirculations);
}

// A shrunk Fig. 5a point: Draconis scheduler, fixed 500 us tasks, open-loop
// load. Guards the event-engine's ordering guarantee end to end — a
// same-seed run must reproduce every metric bit for bit, including the
// cancellation-heavy executor-watchdog and client-timeout traffic.
cluster::ExperimentConfig Fig05aMiniConfig() {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(15);
  config.max_tasks_per_packet = 1;
  config.jbsq_k = 3;
  config.timeout_multiplier = 5.0;
  config.seed = 42;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = 100e3 * 16.0 / 160.0;  // the 100 ktps point, scaled
  config.workload.duration = config.horizon;
  config.workload.tasks_per_job = 10;
  config.workload.service = workload::ServiceTime::Fixed(FromMicros(500));
  config.workload.seed = config.seed;
  return config;
}

// Whole-run fingerprints (cluster::ExperimentResult), pinned next to the
// readable numbers of each golden row: `order` folds every executed event's
// (at, seq), `outcome` digests every assignment, completion and wasted
// execution. The percentile pins are bucket edges; these catch a timestamp
// that moves inside a bucket.
struct Fingerprints {
  uint64_t order;
  uint64_t outcome;
};

void ExpectFingerprints(const cluster::ExperimentResult& result, const Fingerprints& want) {
  EXPECT_EQ(result.order_fingerprint, want.order)
      << std::hex << "order fingerprint 0x" << result.order_fingerprint;
  EXPECT_EQ(result.outcome_fingerprint, want.outcome)
      << std::hex << "outcome fingerprint 0x" << result.outcome_fingerprint;
}

constexpr Fingerprints kFig05aFingerprints = {0x09d77180cef62576, 0x73358b32d7168af1};

TEST(DeterminismTest, Fig05aShapedRunIsBitIdentical) {
  cluster::ExperimentResult a = RunExperiment(Fig05aMiniConfig());
  cluster::ExperimentResult b = RunExperiment(Fig05aMiniConfig());

  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  EXPECT_GT(a.metrics->tasks_completed(), 0u);
  EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->sched_delay().Percentile(q), b.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
  EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
  EXPECT_EQ(a.counters.noops_sent, b.counters.noops_sent);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_GT(a.events_executed, 0u);
  ExpectFingerprints(a, kFig05aFingerprints);
  ExpectFingerprints(b, kFig05aFingerprints);
}

// Pinned goldens: the Fig. 5a mini run, per scheduler kind, against numbers
// captured from a known-good build. These freeze the whole deterministic
// contract — fabric NodeId registration order (scheduler, then workers, then
// clients), the SeedFor domain constants, and the event-engine ordering — so
// any refactor that silently perturbs a stream shows up as a concrete diff
// here, not as a drifted figure. Update the table only for an intentional
// behaviour change, and say so in the commit message.
struct SchedulerGolden {
  cluster::SchedulerKind kind;
  uint64_t completions;
  TimeNs sched_p50;
  TimeNs sched_p99;
  TimeNs e2e_p50;
  TimeNs e2e_p99;
  double throughput_tps;
  Fingerprints fingerprints;
};

TEST(DeterminismTest, PinnedGoldensPerSchedulerKind) {
  const SchedulerGolden goldens[] = {
      {cluster::SchedulerKind::kDraconis, 130, 7679, 366517, 516095, 869596, 10000.0,
       kFig05aFingerprints},
      {cluster::SchedulerKind::kDraconisDpdkServer, 130, 13823, 18132, 523919, 523919,
       10000.0, {0x9f44999b4067f865, 0x24437a29e1a96e8e}},
      {cluster::SchedulerKind::kDraconisSocketServer, 130, 31231, 44031, 557055, 557055,
       10000.0, {0x5ad6740891e5c540, 0x95c047b30e25ff8a}},
      {cluster::SchedulerKind::kR2P2, 130, 507903, 1004785, 1015807, 1507327, 10000.0,
       {0x7c7a5636636ac9f6, 0x65f04f0393eafe2a}},
      {cluster::SchedulerKind::kRackSched, 130, 7551, 369897, 516095, 872611, 10000.0,
       {0x48f6533ba2bc6ce4, 0x0582bbf2360d9646}},
      {cluster::SchedulerKind::kSparrow, 130, 24063, 393215, 540671, 899701, 10000.0,
       {0x8dc0460f4d58794a, 0x83ef77bc93a3f256}},
  };
  // The same table must hold on every queue backend — the goldens pin the
  // (at, seq) contract, not one queue implementation.
  for (sim::QueueBackend backend : names::Values<sim::QueueBackend>()) {
    SCOPED_TRACE(names::Name(backend));
    for (const SchedulerGolden& golden : goldens) {
      SCOPED_TRACE(cluster::SchedulerKindName(golden.kind));
      cluster::ExperimentConfig config = Fig05aMiniConfig();
      config.scheduler = golden.kind;
      config.sim_queue = backend;
      cluster::ExperimentResult result = RunExperiment(config);
      EXPECT_EQ(result.metrics->tasks_completed(), golden.completions);
      EXPECT_EQ(result.metrics->sched_delay().Percentile(0.50), golden.sched_p50);
      EXPECT_EQ(result.metrics->sched_delay().Percentile(0.99), golden.sched_p99);
      EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.50), golden.e2e_p50);
      EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.99), golden.e2e_p99);
      EXPECT_DOUBLE_EQ(result.throughput_tps, golden.throughput_tps);
      ExpectFingerprints(result, golden.fingerprints);
    }
  }
}

// The push kinds' intra-node dispatchers, pinned like the table above on the
// same shrunk Fig. 5a point: Malcolm (cFCFS workers that report sojourns) and
// RackSched's Processor-Sharing workers. The EDF pair runs at 2.4x the load on
// a deadline-tagged stream (1x slack, up to 2 ms jitter): untagged, or with
// node queues too short to reorder, EDF is exactly cFCFS — so the pair pins
// the cFCFS run of the same stream beside it.
TEST(DeterminismTest, PinnedGoldensPerIntraNodeDispatcher) {
  struct IntraNodeGolden {
    SchedulerGolden golden;
    baselines::IntraNodePolicy intra;
    bool loaded_deadline_stream;
  };
  using baselines::IntraNodePolicy;
  using cluster::SchedulerKind;
  const IntraNodeGolden goldens[] = {
      {{SchedulerKind::kMalcolm, 130, 7551, 369681, 516095, 872395, 10000.0,
        {0x5b0f5bae540c459b, 0x0ce4f0f6ab733871}},
       IntraNodePolicy::kFcfs, false},
      {{SchedulerKind::kRackSched, 130, 7551, 8191, 516095, 689769, 10000.0,
        {0x9f84f48259952906, 0x29b25b13125c051b}},
       IntraNodePolicy::kProcessorSharing, false},
      {{SchedulerKind::kRackSched, 330, 155647, 2359295, 671743, 2818047, 25384.615384615387,
        {0x56ceb7d60cd47ac7, 0x6bbc524b065819a8}},
       IntraNodePolicy::kEdf, true},
      {{SchedulerKind::kRackSched, 330, 221183, 1998847, 737279, 2490367, 25384.615384615387,
        {0x3eae741a9b2f3612, 0x7be0b10214ea9ae2}},
       IntraNodePolicy::kFcfs, true},
  };
  for (sim::QueueBackend backend : names::Values<sim::QueueBackend>()) {
    SCOPED_TRACE(names::Name(backend));
    for (const IntraNodeGolden& row : goldens) {
      const SchedulerGolden& golden = row.golden;
      SCOPED_TRACE(std::string(cluster::SchedulerKindName(golden.kind)) + " intra " +
                   names::Name(row.intra));
      cluster::ExperimentConfig config = Fig05aMiniConfig();
      config.scheduler = golden.kind;
      config.racksched_intra_policy = row.intra;
      config.sim_queue = backend;
      if (row.loaded_deadline_stream) {
        config.workload.tasks_per_second *= 2.4;
        config.workload.taggers.push_back(
            workload::TaggerStage::Deadline(/*slack=*/1.0, /*jitter_us=*/2000, 12));
      }
      cluster::ExperimentResult result = RunExperiment(config);
      EXPECT_EQ(result.metrics->tasks_completed(), golden.completions);
      EXPECT_EQ(result.metrics->sched_delay().Percentile(0.50), golden.sched_p50);
      EXPECT_EQ(result.metrics->sched_delay().Percentile(0.99), golden.sched_p99);
      EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.50), golden.e2e_p50);
      EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.99), golden.e2e_p99);
      EXPECT_DOUBLE_EQ(result.throughput_tps, golden.throughput_tps);
      ExpectFingerprints(result, golden.fingerprints);
    }
  }
}

// The cross-backend contract head-on: a heap run and a ladder run of the
// fig05a-shaped experiment are bit-identical in every metric. Combined with
// the pinned table above this proves the backends interchangeable for every
// published number.
TEST(DeterminismTest, HeapAndLadderBackendsAreBitIdenticalOnFig05a) {
  cluster::ExperimentConfig heap_config = Fig05aMiniConfig();
  heap_config.sim_queue = sim::QueueBackend::kHeap;
  cluster::ExperimentConfig ladder_config = Fig05aMiniConfig();
  ladder_config.sim_queue = sim::QueueBackend::kLadder;

  cluster::ExperimentResult a = RunExperiment(heap_config);
  cluster::ExperimentResult b = RunExperiment(ladder_config);

  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  EXPECT_GT(a.metrics->tasks_completed(), 0u);
  EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->sched_delay().Percentile(q), b.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
  EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
  EXPECT_EQ(a.counters.noops_sent, b.counters.noops_sent);
  // And both equal the pinned kDraconis golden.
  EXPECT_EQ(b.metrics->tasks_completed(), 130u);
  EXPECT_EQ(b.metrics->sched_delay().Percentile(0.50), 7679);
  EXPECT_EQ(b.metrics->e2e_delay().Percentile(0.99), 869596);
}

// The PIFO equivalence golden (docs/pifo.md): on an untagged fcfs workload
// every strict-priority rank is zero, so the rank-ordered PIFO degenerates to
// pure FIFO and the run must be bit-identical to the circular-queue pipeline
// — including the pinned kDraconis golden above. Guards both directions: the
// PIFO path cannot drift from the paper pipeline, and the pinned numbers
// cannot silently absorb a PIFO regression.
TEST(DeterminismTest, StrictPriorityPifoIsBitIdenticalToFifoPipeline) {
  cluster::ExperimentResult fifo = RunExperiment(Fig05aMiniConfig());

  cluster::ExperimentConfig config = Fig05aMiniConfig();
  config.switch_policy = core::SwitchPolicy::kStrictPriority;
  cluster::ExperimentResult pifo = RunExperiment(config);

  EXPECT_EQ(fifo.metrics->tasks_submitted(), pifo.metrics->tasks_submitted());
  EXPECT_EQ(fifo.metrics->tasks_completed(), pifo.metrics->tasks_completed());
  EXPECT_EQ(fifo.metrics->sched_delay().count(), pifo.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(fifo.metrics->sched_delay().Percentile(q),
              pifo.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(fifo.metrics->e2e_delay().Percentile(q), pifo.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(fifo.switch_counters.passes, pifo.switch_counters.passes);
  EXPECT_EQ(fifo.counters.tasks_assigned, pifo.counters.tasks_assigned);
  EXPECT_EQ(fifo.counters.noops_sent, pifo.counters.noops_sent);

  // And both match the pinned kDraconis golden numbers.
  EXPECT_EQ(pifo.metrics->tasks_completed(), 130u);
  EXPECT_EQ(pifo.metrics->sched_delay().Percentile(0.50), 7679);
  EXPECT_EQ(pifo.metrics->sched_delay().Percentile(0.99), 366517);
  EXPECT_EQ(pifo.metrics->e2e_delay().Percentile(0.50), 516095);
  EXPECT_EQ(pifo.metrics->e2e_delay().Percentile(0.99), 869596);
  EXPECT_DOUBLE_EQ(pifo.throughput_tps, 10000.0);
}

// Every non-default switch policy replays bit-identically for a fixed seed —
// on streams tagged so the ranks are actually non-trivial (priorities,
// deadlines, tenants).
TEST(DeterminismTest, NonDefaultSwitchPoliciesReplayBitIdentically) {
  auto make = [](core::SwitchPolicy policy) {
    cluster::ExperimentConfig config = Fig05aMiniConfig();
    config.switch_policy = policy;
    config.wfq_weights = {3, 1};
    switch (policy) {
      case core::SwitchPolicy::kStrictPriority:
        config.workload.taggers.push_back(workload::TaggerStage::Priority({1, 2, 3, 4}, 11));
        break;
      case core::SwitchPolicy::kEdf:
        config.workload.taggers.push_back(
            workload::TaggerStage::Deadline(/*slack=*/3.0, /*jitter_us=*/200, 12));
        break;
      case core::SwitchPolicy::kWfq:
        config.workload.taggers.push_back(workload::TaggerStage::Tenant(/*num_tenants=*/2, 13));
        break;
      default:
        break;
    }
    return config;
  };
  for (core::SwitchPolicy policy : names::Values<core::SwitchPolicy>()) {
    if (policy == core::SwitchPolicy::kFifo) {
      continue;
    }
    SCOPED_TRACE(names::Name(policy));
    cluster::ExperimentResult a = RunExperiment(make(policy));
    cluster::ExperimentResult b = RunExperiment(make(policy));
    EXPECT_GT(a.metrics->tasks_completed(), 0u);
    EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
    EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
    EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(a.metrics->sched_delay().Percentile(q),
                b.metrics->sched_delay().Percentile(q))
          << "q=" << q;
      EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
          << "q=" << q;
    }
    EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
    EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
    EXPECT_EQ(a.counters.noops_sent, b.counters.noops_sent);
  }
}

// Tracing must be a pure observer: sampling is a hash of the task id (no
// RNG, no scheduled events), so a traced run — at any sampling rate — is
// bit-identical to an untraced one. Guards the recorder threading through
// client/network/switch/executor against accidental behaviour branches.
TEST(DeterminismTest, TracingAtAnyRateIsBitIdenticalToUntraced) {
  auto run = [](bool enabled, uint64_t period) {
    cluster::ExperimentConfig config = Fig05aMiniConfig();
    config.trace.enabled = enabled;
    config.trace.sample_period = period;
    return RunExperiment(config);
  };
  cluster::ExperimentResult off = run(false, 64);
  cluster::ExperimentResult sampled = run(true, 64);
  cluster::ExperimentResult full = run(true, 1);

  ASSERT_EQ(off.trace, nullptr);
  ASSERT_NE(sampled.trace, nullptr);
  ASSERT_NE(full.trace, nullptr);
  EXPECT_GT(full.trace->records().size(), sampled.trace->records().size());

  for (const cluster::ExperimentResult* traced : {&sampled, &full}) {
    EXPECT_EQ(off.metrics->tasks_submitted(), traced->metrics->tasks_submitted());
    EXPECT_EQ(off.metrics->tasks_completed(), traced->metrics->tasks_completed());
    EXPECT_EQ(off.metrics->sched_delay().count(), traced->metrics->sched_delay().count());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(off.metrics->sched_delay().Percentile(q),
                traced->metrics->sched_delay().Percentile(q))
          << "q=" << q;
      EXPECT_EQ(off.metrics->e2e_delay().Percentile(q),
                traced->metrics->e2e_delay().Percentile(q))
          << "q=" << q;
    }
    EXPECT_EQ(off.switch_counters.passes, traced->switch_counters.passes);
    EXPECT_EQ(off.counters.tasks_assigned, traced->counters.tasks_assigned);
    EXPECT_EQ(off.counters.noops_sent, traced->counters.noops_sent);
  }
}

// The fault subsystem's determinism contract (src/fault/): arming an empty —
// or never-firing — plan consumes no randomness and schedules nothing that
// changes behaviour, so the run is bit-identical to a faultless one.
TEST(DeterminismTest, EmptyOrNeverFiringFaultPlanIsBitIdenticalToFaultless) {
  cluster::ExperimentResult faultless = RunExperiment(Fig05aMiniConfig());

  cluster::ExperimentConfig empty_plan = Fig05aMiniConfig();
  empty_plan.fault_plan = fault::FaultPlan{};
  cluster::ExperimentResult with_empty = RunExperiment(empty_plan);

  cluster::ExperimentConfig never_firing = Fig05aMiniConfig();
  // Onset far past the horizon: armed, never fires.
  never_firing.fault_plan.LatencyDegrade(FromSeconds(100), fault::FaultEvent::kNever,
                                         FromMicros(5));
  cluster::ExperimentResult with_never = RunExperiment(never_firing);

  EXPECT_FALSE(with_empty.recovery.fault_plan_active);
  EXPECT_TRUE(with_never.recovery.fault_plan_active);
  EXPECT_EQ(with_never.recovery.fault_events_started, 0u);

  for (const cluster::ExperimentResult* r : {&with_empty, &with_never}) {
    EXPECT_EQ(faultless.metrics->tasks_submitted(), r->metrics->tasks_submitted());
    EXPECT_EQ(faultless.metrics->tasks_completed(), r->metrics->tasks_completed());
    EXPECT_EQ(faultless.metrics->timeout_resubmissions(), r->metrics->timeout_resubmissions());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(faultless.metrics->sched_delay().Percentile(q),
                r->metrics->sched_delay().Percentile(q))
          << "q=" << q;
      EXPECT_EQ(faultless.metrics->e2e_delay().Percentile(q),
                r->metrics->e2e_delay().Percentile(q))
          << "q=" << q;
    }
    EXPECT_EQ(faultless.switch_counters.passes, r->switch_counters.passes);
    EXPECT_EQ(faultless.counters.tasks_assigned, r->counters.tasks_assigned);
    EXPECT_EQ(faultless.counters.noops_sent, r->counters.noops_sent);
  }
}

// Same seed + same fault plan => bit-identical results, including every
// recovery metric — the §3.3 failover (standby build, executor rehoming,
// client timeout rehoming) is as reproducible as a faultless run.
TEST(DeterminismTest, FailoverRunIsBitIdentical) {
  auto make = [] {
    cluster::ExperimentConfig config = Fig05aMiniConfig();
    config.fault_plan.SchedulerFailover(FromMillis(7));
    config.fault_settle = FromMillis(6);
    return config;
  };
  cluster::ExperimentResult a = RunExperiment(make());
  cluster::ExperimentResult b = RunExperiment(make());

  EXPECT_GT(a.counters.failovers, 0u);
  EXPECT_GT(a.recovery.executor_rehomes, 0u);
  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_during_fault().Percentile(q),
              b.metrics->e2e_during_fault().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_post_fault().Percentile(q),
              b.metrics->e2e_post_fault().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.recovery.time_to_recover, b.recovery.time_to_recover);
  EXPECT_EQ(a.recovery.unavailability, b.recovery.unavailability);
  EXPECT_EQ(a.recovery.tasks_resubmitted, b.recovery.tasks_resubmitted);
  EXPECT_EQ(a.recovery.tasks_lost, b.recovery.tasks_lost);
  EXPECT_EQ(a.recovery.client_rehomes, b.recovery.client_rehomes);
  EXPECT_EQ(a.recovery.executor_rehomes, b.recovery.executor_rehomes);
  EXPECT_EQ(a.recovery.packets_dropped, b.recovery.packets_dropped);
  EXPECT_EQ(a.counters.failovers, b.counters.failovers);
  // Pinned like the golden tables above: the disconnect re-checks, standby
  // build and rehoming replay exactly across commits.
  constexpr Fingerprints kFailoverFingerprints = {0x80c2b3490ecedee0, 0x42e8fff028a4e2a9};
  ExpectFingerprints(a, kFailoverFingerprints);
  ExpectFingerprints(b, kFailoverFingerprints);
}

// The multi-rack degenerate case (docs/topology.md): a 1-rack ClusterTopology
// builds the same scheduler, the same registration order, and no fabric
// machinery (no summary publishers, no routers), so it must reproduce the
// single-switch pinned golden bit for bit. This is the topology subsystem's
// whole backward-compatibility contract in one assertion block.
TEST(DeterminismTest, OneRackTopologyIsBitIdenticalToSingleSwitchGolden) {
  cluster::ExperimentConfig config = Fig05aMiniConfig();
  config.cluster = topology::ClusterTopology::Uniform(1, 4, 4);
  cluster::ExperimentResult result = RunExperiment(config);

  EXPECT_EQ(result.num_racks, 1u);
  EXPECT_EQ(result.cross_rack_submissions, 0u);
  EXPECT_EQ(result.metrics->tasks_completed(), 130u);
  EXPECT_EQ(result.metrics->sched_delay().Percentile(0.50), 7679);
  EXPECT_EQ(result.metrics->sched_delay().Percentile(0.99), 366517);
  EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.50), 516095);
  EXPECT_EQ(result.metrics->e2e_delay().Percentile(0.99), 869596);
  EXPECT_DOUBLE_EQ(result.throughput_tps, 10000.0);
}

// The §5.3 locality path end to end: the locality policy's escalation walk
// and the executors' data-access model both read the worker -> rack map
// (worker n sits in rack n % num_racks), so a change to either shows up
// here. Pinned like the single-switch golden table above.
cluster::ExperimentConfig LocalityMiniConfig() {
  cluster::ExperimentConfig config = MakeConfig(11);
  config.num_workers = 6;
  config.num_racks = 3;
  config.policy = cluster::PolicyKind::kLocality;
  config.locality_access_model = true;
  config.workload.tasks_per_second = 0.3 * 24 / 100e-6;
  config.workload.taggers.push_back(workload::TaggerStage::Locality(6, 17));
  return config;
}

TEST(DeterminismTest, LocalityRunMatchesPin) {
  cluster::ExperimentResult result = RunExperiment(LocalityMiniConfig());
  const cluster::MetricsHub& m = *result.metrics;
  EXPECT_EQ(m.tasks_completed(), 1242u);
  EXPECT_EQ(m.placements(net::TaskInfo::Placement::kLocal), 704u);
  EXPECT_EQ(m.placements(net::TaskInfo::Placement::kSameRack), 340u);
  EXPECT_EQ(m.placements(net::TaskInfo::Placement::kRemote), 198u);
  EXPECT_EQ(m.e2e_delay().Percentile(0.50), 233471);
  EXPECT_EQ(m.e2e_delay().Percentile(0.99), 1146879);
  ExpectFingerprints(result, {0xafd84a0840bb8d46, 0xe2f2ec29ae093a37});
}

// Captured from a known-good build of the 2-rack mini run below; update only
// for an intentional behaviour change, and say so in the commit message.
constexpr uint64_t kTwoRackGoldenCompletions = 130;
constexpr TimeNs kTwoRackGoldenSchedP50 = 7679;
constexpr TimeNs kTwoRackGoldenE2eP99 = 516095;
constexpr Fingerprints kTwoRackGoldenFingerprints = {0x0e005d117019f8aa, 0x3d6ac78d337d0643};

cluster::ExperimentConfig TwoRackMiniConfig() {
  cluster::ExperimentConfig config = Fig05aMiniConfig();
  // Two racks of the fig05a shape; the two clients home round-robin, one per
  // rack, so both ToR pipelines see traffic and the summary fabric runs.
  config.cluster = topology::ClusterTopology::Uniform(2, 4, 4);
  return config;
}

// Same seed + same topology => bit-identical multi-rack runs, pinned against
// numbers captured from a known-good build (same update policy as the
// single-switch golden table above). Freezes the multi-rack registration
// order, the rack-indexed placement seed domain, and the summary-fabric
// event schedule.
TEST(DeterminismTest, TwoRackRunReplaysBitIdenticallyAndMatchesPin) {
  cluster::ExperimentResult a = RunExperiment(TwoRackMiniConfig());
  cluster::ExperimentResult b = RunExperiment(TwoRackMiniConfig());

  EXPECT_EQ(a.metrics->tasks_submitted(), b.metrics->tasks_submitted());
  EXPECT_EQ(a.metrics->tasks_completed(), b.metrics->tasks_completed());
  EXPECT_EQ(a.metrics->sched_delay().count(), b.metrics->sched_delay().count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.metrics->sched_delay().Percentile(q), b.metrics->sched_delay().Percentile(q))
        << "q=" << q;
    EXPECT_EQ(a.metrics->e2e_delay().Percentile(q), b.metrics->e2e_delay().Percentile(q))
        << "q=" << q;
  }
  EXPECT_EQ(a.switch_counters.passes, b.switch_counters.passes);
  EXPECT_EQ(a.counters.tasks_assigned, b.counters.tasks_assigned);
  EXPECT_EQ(a.cross_rack_submissions, b.cross_rack_submissions);
  ASSERT_EQ(a.rack_decisions.size(), 2u);
  EXPECT_EQ(a.rack_decisions, b.rack_decisions);
  // Both racks schedule: the feeder really does split the stream.
  EXPECT_GT(a.rack_decisions[0], 0u);
  EXPECT_GT(a.rack_decisions[1], 0u);

  // The pinned golden (see the comment on PinnedGoldensPerSchedulerKind).
  EXPECT_EQ(a.num_racks, 2u);
  EXPECT_EQ(a.metrics->tasks_completed(), kTwoRackGoldenCompletions);
  EXPECT_EQ(a.metrics->sched_delay().Percentile(0.50), kTwoRackGoldenSchedP50);
  EXPECT_EQ(a.metrics->e2e_delay().Percentile(0.99), kTwoRackGoldenE2eP99);
  ExpectFingerprints(a, kTwoRackGoldenFingerprints);
  ExpectFingerprints(b, kTwoRackGoldenFingerprints);
}

// §3.3 failover on a 2-rack topology: rack 0's ToR fails and its standby is
// promoted while rack 1 keeps scheduling. A smoke, not a golden — it guards
// that the per-rack fault path (standby build, executor rehoming, summary
// publisher retarget) composes with the topology at all.
TEST(DeterminismTest, TwoRackTorFailoverRecovers) {
  cluster::ExperimentConfig config = TwoRackMiniConfig();
  config.fault_plan.SchedulerFailover(FromMillis(7));
  config.fault_settle = FromMillis(6);
  cluster::ExperimentResult result = RunExperiment(config);

  EXPECT_GT(result.counters.failovers, 0u);
  EXPECT_GT(result.recovery.executor_rehomes, 0u);
  EXPECT_GT(result.metrics->tasks_completed(), 0u);
  ASSERT_EQ(result.rack_decisions.size(), 2u);
  // The surviving rack keeps scheduling through the fault.
  EXPECT_GT(result.rack_decisions[1], 0u);
}

// Builds a randomized self-extending event graph on `sim`: chains that
// reschedule themselves, cancellable watchdogs that are armed and torn
// down, and a periodic timer — all driven off one seeded Rng so two
// instances evolve identically.
struct ScriptedWorkload {
  sim::Simulator* sim;
  Rng rng;
  std::vector<int>* order;
  int remaining;
  sim::EventHandle watchdog;
  sim::Timer pulse;

  ScriptedWorkload(sim::Simulator* s, uint64_t seed, std::vector<int>* out, int events)
      : sim(s), rng(seed), order(out), remaining(events) {
    pulse.Bind(sim, [this] {
      order->push_back(-1);
      if (remaining > 0) {
        pulse.ScheduleAfter(17);
      }
    });
    pulse.ScheduleAfter(17);
    Tick(0);
  }

  void Tick(int id) {
    order->push_back(id);
    if (remaining-- <= 0) {
      return;
    }
    const int next = static_cast<int>(rng.NextBelow(1 << 30));
    sim->ScheduleAfter(1 + static_cast<TimeNs>(rng.NextBelow(37)),
                       [this, next] { Tick(next); });
    // Churn a watchdog like the executor pull loop does.
    watchdog.Cancel();
    watchdog = sim->ScheduleAfter(500 + static_cast<TimeNs>(rng.NextBelow(100)),
                                  [this] { order->push_back(-2); }, sim::kCancellable);
  }
};

TEST(DeterminismTest, RunUntilInSmallStepsEqualsOneRunAll) {
  // On every backend — and the histories must also agree across backends.
  std::vector<std::vector<int>> per_backend_orders;
  for (sim::QueueBackend backend : names::Values<sim::QueueBackend>()) {
    SCOPED_TRACE(names::Name(backend));
    std::vector<int> order_all;
    std::vector<int> order_stepped;
    uint64_t executed_all = 0;
    uint64_t executed_stepped = 0;

    {
      sim::Simulator sim(backend);
      ScriptedWorkload wl(&sim, 77, &order_all, 3000);
      sim.RunAll();
      executed_all = sim.executed_events();
    }
    {
      sim::Simulator sim(backend);
      ScriptedWorkload wl(&sim, 77, &order_stepped, 3000);
      // Many tiny uneven steps must replay the exact same history.
      TimeNs t = 0;
      Rng step_rng(123);
      while (sim.pending_events() > 0) {
        t += 1 + static_cast<TimeNs>(step_rng.NextBelow(23));
        sim.RunUntil(t);
      }
      executed_stepped = sim.executed_events();
    }

    EXPECT_EQ(order_all, order_stepped);
    EXPECT_EQ(executed_all, executed_stepped);
    EXPECT_GT(executed_all, 3000u);
    per_backend_orders.push_back(std::move(order_all));
  }
  for (size_t i = 1; i < per_backend_orders.size(); ++i) {
    EXPECT_EQ(per_backend_orders[0], per_backend_orders[i]);
  }
}

}  // namespace
}  // namespace draconis
