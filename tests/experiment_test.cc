// Unit-level checks of the experiment harness: bookkeeping math, window
// semantics, defaults, and scheduler-specific wiring that the figure benches
// rely on.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "cluster/deployment.h"
#include "cluster/experiment.h"
#include "cluster/feeder.h"
#include "common/check.h"
#include "common/names.h"
#include "dag/job_spec.h"
#include "fault/plan.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace draconis::cluster {
namespace {

ExperimentConfig TinyConfig(double tasks_per_second = 40000.0) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kDraconis;
  config.num_workers = 2;
  config.executors_per_worker = 4;
  config.num_clients = 1;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(20);
  config.max_tasks_per_packet = 1;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = tasks_per_second;
  config.workload.duration = config.horizon;
  config.workload.service = workload::ServiceTime::Fixed(FromMicros(100));
  config.workload.seed = 3;
  return config;
}

TEST(ExperimentTest, OfferedUtilizationMatchesArithmetic) {
  // 40k tasks/s x 100 us over 8 executors = 50%.
  ExperimentResult result = RunExperiment(TinyConfig());
  EXPECT_NEAR(result.offered_utilization, 0.5, 0.03);
  EXPECT_NEAR(result.offered_tasks_per_second, 40000.0, 2500.0);
}

TEST(ExperimentTest, BusyFractionTracksOfferedLoad) {
  ExperimentResult result = RunExperiment(TinyConfig());
  EXPECT_NEAR(result.executor_busy_fraction, result.offered_utilization, 0.06);
}

TEST(ExperimentTest, WarmupTasksAreNotMeasured) {
  ExperimentConfig config = TinyConfig();
  config.warmup = FromMillis(10);  // half the stream is warmup
  ExperimentResult half = RunExperiment(config);
  config.warmup = FromMillis(2);
  ExperimentResult most = RunExperiment(config);
  EXPECT_LT(half.metrics->tasks_submitted(), most.metrics->tasks_submitted() * 2 / 3);
}

TEST(ExperimentTest, DefaultHorizonCoversTheStream) {
  ExperimentConfig config = TinyConfig();
  config.horizon = 0;  // derive from the last arrival
  ExperimentResult result = RunExperiment(config);
  // Everything submitted completes within the derived horizon + margin.
  EXPECT_EQ(result.metrics->tasks_completed(), result.metrics->tasks_submitted());
}

TEST(ExperimentTest, ThroughputMatchesCompletionsPerWindow) {
  ExperimentResult result = RunExperiment(TinyConfig());
  const double window_seconds = ToSeconds(FromMillis(20) - FromMillis(2));
  EXPECT_NEAR(result.throughput_tps,
              static_cast<double>(result.metrics->tasks_completed()) / window_seconds,
              1.0);
}

TEST(ExperimentTest, TextbookDequeueModeIsWiredThrough) {
  ExperimentConfig config = TinyConfig();
  config.shadow_copy_dequeue = false;
  ExperimentResult result = RunExperiment(config);
  // The textbook dequeue repairs the retrieve pointer after empty-queue
  // dips; at 50% load there are plenty.
  EXPECT_GT(result.counters.retrieve_repairs, 0u);

  config.shadow_copy_dequeue = true;
  ExperimentResult shadow = RunExperiment(config);
  EXPECT_EQ(shadow.counters.retrieve_repairs, 0u);
}

TEST(ExperimentTest, RackSchedIntraPolicyIsWiredThrough) {
  ExperimentConfig config = TinyConfig(64000.0);  // 80%: queues form
  config.scheduler = SchedulerKind::kRackSched;
  config.racksched_intra_policy = baselines::IntraNodePolicy::kProcessorSharing;
  ExperimentResult ps = RunExperiment(config);
  config.racksched_intra_policy = baselines::IntraNodePolicy::kFcfs;
  ExperimentResult fcfs = RunExperiment(config);
  // Both complete the work; PS has the (weakly) smaller queueing tail.
  EXPECT_GT(ps.metrics->tasks_completed(), 0u);
  EXPECT_LE(ps.metrics->sched_delay().Percentile(0.99),
            fcfs.metrics->sched_delay().Percentile(0.99));
}

TEST(ExperimentTest, IntraNodePolicyIsRejectedWithoutAnIntraNodeDispatcher) {
  // Draconis's executors have no intra-node dispatcher: Processor Sharing
  // would silently run as FCFS, so the config is refused.
  ExperimentConfig config = TinyConfig();
  config.racksched_intra_policy = baselines::IntraNodePolicy::kProcessorSharing;
  EXPECT_NE(config.Validate().find("no intra-node dispatcher"), std::string::npos)
      << config.Validate();
  EXPECT_THROW(RunExperiment(config), CheckFailure);
}

TEST(ExperimentTest, IntraNodePolicyFollowsTheRegistryBit) {
  ExperimentConfig config = TinyConfig();
  for (const DeploymentInfo& info : DeploymentRegistry::Get().all()) {
    SCOPED_TRACE(info.canonical_name);
    config.scheduler = info.kind;
    for (baselines::IntraNodePolicy intra :
         {baselines::IntraNodePolicy::kProcessorSharing, baselines::IntraNodePolicy::kEdf}) {
      config.racksched_intra_policy = intra;
      EXPECT_EQ(config.Validate().empty(), info.intra_node_dispatcher);
    }
    config.racksched_intra_policy = baselines::IntraNodePolicy::kFcfs;
    EXPECT_EQ(config.Validate(), "");
  }
  EXPECT_TRUE(DeploymentRegistry::Get().Info(SchedulerKind::kRackSched).intra_node_dispatcher);
  EXPECT_TRUE(DeploymentRegistry::Get().Info(SchedulerKind::kMalcolm).intra_node_dispatcher);
}

TEST(ExperimentTest, PipelineOverridesAreHonored) {
  ExperimentConfig config = TinyConfig();
  config.scheduler = SchedulerKind::kR2P2;
  config.jbsq_k = 1;
  // Choke the loopback port completely: any spin drops immediately.
  config.pipeline.recirc_rate_pps = 1e3;
  config.pipeline.recirc_queue_depth = 1;
  ExperimentConfig heavy = config;
  heavy.workload.tasks_per_second = 76000.0;  // ~95% of 8 executors
  ExperimentResult result = RunExperiment(heavy);
  EXPECT_GT(result.recirc_drops, 0u);
}

TEST(ExperimentTest, SparrowMultiSchedulerDeploysDistinctServers) {
  ExperimentConfig config = TinyConfig();
  config.scheduler = SchedulerKind::kSparrow;
  config.num_schedulers = 2;
  ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.counters.tasks_launched, 0u);
  EXPECT_GE(result.metrics->tasks_completed(), result.metrics->tasks_submitted() * 97 / 100);
}

TEST(ExperimentTest, SeedChangesWorkloadButNotShape) {
  ExperimentConfig a = TinyConfig();
  a.seed = 1;
  ExperimentConfig b = TinyConfig();
  b.seed = 2;
  ExperimentResult ra = RunExperiment(a);
  ExperimentResult rb = RunExperiment(b);
  EXPECT_GT(ra.metrics->tasks_completed(), 0u);
  EXPECT_GT(rb.metrics->tasks_completed(), 0u);
  // Network jitter differs by seed, so pass counts differ.
  EXPECT_NE(ra.switch_counters.emitted, rb.switch_counters.emitted);
}

TEST(ExperimentTest, SchedulerKindNamesRoundTrip) {
  for (SchedulerKind kind :
       {SchedulerKind::kDraconis, SchedulerKind::kDraconisDpdkServer,
        SchedulerKind::kDraconisSocketServer, SchedulerKind::kR2P2, SchedulerKind::kRackSched,
        SchedulerKind::kSparrow}) {
    SchedulerKind parsed;
    ASSERT_TRUE(SchedulerKindFromName(SchedulerKindName(kind), &parsed))
        << SchedulerKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(ExperimentTest, SchedulerKindFromNameIsCaseInsensitiveWithShortSpellings) {
  SchedulerKind parsed;
  ASSERT_TRUE(SchedulerKindFromName("draconis", &parsed));
  EXPECT_EQ(parsed, SchedulerKind::kDraconis);
  ASSERT_TRUE(SchedulerKindFromName("RACKSCHED", &parsed));
  EXPECT_EQ(parsed, SchedulerKind::kRackSched);
  ASSERT_TRUE(SchedulerKindFromName("dpdk-server", &parsed));
  EXPECT_EQ(parsed, SchedulerKind::kDraconisDpdkServer);
  ASSERT_TRUE(SchedulerKindFromName("socket-server", &parsed));
  EXPECT_EQ(parsed, SchedulerKind::kDraconisSocketServer);
  EXPECT_FALSE(SchedulerKindFromName("mesos", &parsed));
  EXPECT_FALSE(SchedulerKindFromName("", &parsed));
}

// --- Name tables ---------------------------------------------------------------

// One enum's spelling table: `spellings` pins every enumerator's name in
// enum order (the bytes every writer emits), `unknown` is a name it must
// reject.
template <typename E>
void ExpectNameTable(const std::vector<std::string>& spellings, const std::string& unknown) {
  const std::vector<E> values = names::Values<E>();
  ASSERT_EQ(values.size(), spellings.size());
  for (size_t i = 0; i < spellings.size(); ++i) {
    const E value = static_cast<E>(i);
    EXPECT_EQ(names::Name(value), spellings[i]);
    E parsed = values[(i + 1) % values.size()];
    ASSERT_TRUE(names::Parse(names::Name(value), &parsed)) << spellings[i];
    EXPECT_EQ(parsed, value) << spellings[i];
    std::string upper = spellings[i];
    for (char& c : upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    parsed = values[(i + 1) % values.size()];
    ASSERT_TRUE(names::Parse(upper, &parsed)) << upper;
    EXPECT_EQ(parsed, value) << upper;
  }
  for (const std::string& bad : {std::string(), unknown, std::string("?")}) {
    E untouched = values.back();
    EXPECT_FALSE(names::Parse(bad, &untouched)) << "'" << bad << "'";
    EXPECT_EQ(untouched, values.back()) << "'" << bad << "'";
  }
}

TEST(NameTableTest, EveryEnumRoundTripsItsSpellingsCaseInsensitively) {
  ExpectNameTable<PolicyKind>({"fcfs", "priority", "resource", "locality"}, "round-robin");
  ExpectNameTable<core::SwitchPolicy>({"fifo", "sp", "srpt", "edf", "wfq"}, "lifo");
  ExpectNameTable<baselines::IntraNodePolicy>({"fcfs", "ps", "edf"}, "srpt");
  ExpectNameTable<sim::QueueBackend>({"ladder", "heap"}, "calendar");
  ExpectNameTable<topology::PlacementKind>({"home", "power-of-two"}, "round-robin");
  ExpectNameTable<workload::ArrivalKind>({"none", "open-loop", "phased", "google-trace"},
                                         "mapreduce");
  ExpectNameTable<workload::TaggerStage::Kind>({"locality", "priority", "deadline", "tenant"},
                                               "colour");
  ExpectNameTable<dag::DagShape>({"chain", "fanout", "random"}, "moebius");
  ExpectNameTable<fault::EventKind>(
      {"lossy_link", "node_crash", "latency_degrade", "scheduler_failover"}, "meteor_strike");
  ExpectNameTable<fault::NodeRef::Role>({"scheduler", "standby", "executor", "client", "node"},
                                        "tor");
}

TEST(NameTableTest, ChoicesListEverySelectableSpelling) {
  EXPECT_EQ(names::Choices<PolicyKind>(), "fcfs|priority|resource|locality");
  EXPECT_EQ(names::Choices<sim::QueueBackend>(), "ladder|heap");
  // ArrivalKind::kNone reads and writes as "none", but no flag or
  // WorkloadSpec::FromName selects it.
  EXPECT_EQ(names::Names<workload::ArrivalKind>(),
            (std::vector<std::string>{"open-loop", "phased", "google-trace"}));
  workload::WorkloadSpec spec;
  EXPECT_FALSE(workload::WorkloadSpec::FromName("none", &spec));
  EXPECT_TRUE(workload::WorkloadSpec::FromName("Open-Loop", &spec));
  EXPECT_EQ(spec.arrival, workload::ArrivalKind::kOpenLoop);
}

TEST(NameTableTest, SchedulerKindsRoundTripThroughTheRegistry) {
  for (const DeploymentInfo& info : DeploymentRegistry::Get().all()) {
    for (std::string name : {std::string(info.canonical_name), std::string(info.flag_name)}) {
      SchedulerKind parsed = info.kind == SchedulerKind::kDraconis ? SchedulerKind::kMalcolm
                                                                   : SchedulerKind::kDraconis;
      ASSERT_TRUE(SchedulerKindFromName(name, &parsed)) << name;
      EXPECT_EQ(parsed, info.kind) << name;
      for (char& c : name) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      ASSERT_TRUE(SchedulerKindFromName(name, &parsed)) << name;
      EXPECT_EQ(parsed, info.kind) << name;
    }
    EXPECT_STREQ(SchedulerKindName(info.kind), info.canonical_name);
  }
  SchedulerKind untouched = SchedulerKind::kSparrow;
  EXPECT_FALSE(SchedulerKindFromName("", &untouched));
  EXPECT_FALSE(SchedulerKindFromName("mesos", &untouched));
  EXPECT_EQ(untouched, SchedulerKind::kSparrow);
}

// --- ExperimentConfig::Validate ----------------------------------------------

TEST(ValidateTest, AcceptsTheTinyConfig) {
  EXPECT_EQ(TinyConfig().Validate(), "");
}

TEST(ValidateTest, RejectsZeroSizedCluster) {
  ExperimentConfig config = TinyConfig();
  config.num_workers = 0;
  EXPECT_NE(config.Validate().find("num_workers"), std::string::npos);

  config = TinyConfig();
  config.executors_per_worker = 0;
  EXPECT_NE(config.Validate().find("executors_per_worker"), std::string::npos);

  config = TinyConfig();
  config.num_clients = 0;
  EXPECT_NE(config.Validate().find("num_clients"), std::string::npos);
}

TEST(ValidateTest, RejectsReplicatingSingleInstanceSchedulers) {
  ExperimentConfig config = TinyConfig();
  config.num_schedulers = 2;  // only Sparrow deploys replicas
  const std::string error = config.Validate();
  EXPECT_NE(error.find("num_schedulers"), std::string::npos) << error;

  config.scheduler = SchedulerKind::kSparrow;
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsPoliciesTheSchedulerIgnores) {
  ExperimentConfig config = TinyConfig();
  config.scheduler = SchedulerKind::kR2P2;
  config.policy = PolicyKind::kPriority;
  const std::string error = config.Validate();
  EXPECT_NE(error.find("ignores policy"), std::string::npos) << error;
  EXPECT_NE(error.find("R2P2"), std::string::npos) << error;

  // Draconis honors every policy.
  config.scheduler = SchedulerKind::kDraconis;
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsShortResourceTable) {
  ExperimentConfig config = TinyConfig();
  config.policy = PolicyKind::kResource;
  config.worker_resources = {0x1};  // 2 workers, 1 entry
  const std::string error = config.Validate();
  EXPECT_NE(error.find("worker_resources"), std::string::npos) << error;

  config.worker_resources = {0x1, 0x2};
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsSwitchPoliciesTheSchedulerCannotRun) {
  // Only draconis declares PIFO support; every baseline runs the fixed FIFO
  // switch queue (docs/pifo.md).
  ExperimentConfig config = TinyConfig();
  config.scheduler = SchedulerKind::kSparrow;
  config.switch_policy = core::SwitchPolicy::kSrpt;
  const std::string error = config.Validate();
  EXPECT_NE(error.find("switch policy"), std::string::npos) << error;
  EXPECT_NE(error.find("srpt"), std::string::npos) << error;

  config.scheduler = SchedulerKind::kDraconis;
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsClusterCombosTheTopologyCannotRun) {
  // A multi-rack topology on the Draconis kind with fcfs is fine...
  ExperimentConfig config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  EXPECT_EQ(config.Validate(), "");

  // ...but single-switch baselines cannot shard.
  config.scheduler = SchedulerKind::kSparrow;
  std::string error = config.Validate();
  EXPECT_NE(error.find("multi-rack"), std::string::npos) << error;

  // One scheduler per rack is implied; replicas on top are rejected.
  config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  config.num_schedulers = 2;
  error = config.Validate();
  EXPECT_NE(error.find("num_schedulers"), std::string::npos) << error;

  // Per-switch policy state (priority levels etc.) is not sharded.
  config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  config.policy = PolicyKind::kPriority;
  error = config.Validate();
  EXPECT_NE(error.find("fcfs"), std::string::npos) << error;

  // The locality policy's data-rack map and the cluster topology are
  // mutually exclusive models of "rack".
  config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  config.locality_access_model = true;
  error = config.Validate();
  EXPECT_NE(error.find("locality_access_model"), std::string::npos) << error;

  // Topology-level errors propagate with context.
  config = TinyConfig();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  config.cluster.racks[1].num_workers = 0;
  error = config.Validate();
  EXPECT_NE(error.find("cluster topology: "), std::string::npos) << error;
}

TEST(ValidateTest, RejectsSwitchPolicyCombinedWithPerLevelQueues) {
  // A non-FIFO switch policy replaces the retrieval discipline; the
  // per-level queues, swap walks, and parallel probing have no meaning.
  ExperimentConfig config = TinyConfig();
  config.switch_policy = core::SwitchPolicy::kStrictPriority;
  config.policy = PolicyKind::kPriority;
  std::string error = config.Validate();
  EXPECT_NE(error.find("fcfs"), std::string::npos) << error;

  config = TinyConfig();
  config.switch_policy = core::SwitchPolicy::kEdf;
  config.parallel_priority_stages = true;
  error = config.Validate();
  EXPECT_NE(error.find("parallel_priority_stages"), std::string::npos) << error;
}

TEST(ValidateTest, RejectsDegenerateWfqWeights) {
  ExperimentConfig config = TinyConfig();
  config.switch_policy = core::SwitchPolicy::kWfq;
  config.wfq_weights = {};
  EXPECT_NE(config.Validate().find("weight"), std::string::npos);

  config.wfq_weights = {3, 0};
  EXPECT_NE(config.Validate().find("positive"), std::string::npos);

  config.wfq_weights = {3, 1};
  EXPECT_EQ(config.Validate(), "");
}

TEST(ValidateTest, RejectsWarmupPastTheHorizon) {
  ExperimentConfig config = TinyConfig();
  config.warmup = config.horizon;
  const std::string error = config.Validate();
  EXPECT_NE(error.find("warmup"), std::string::npos) << error;
}

TEST(ValidateTest, RunExperimentRefusesInvalidConfigs) {
  ExperimentConfig config = TinyConfig();
  config.num_workers = 0;
  EXPECT_THROW(RunExperiment(config), draconis::CheckFailure);
}

TEST(FeederRunTest, HandBuiltStreamMatchesTheSpecRun) {
  // RunExperiment(config) is "generate, feed": replaying the same stream
  // through a caller-owned Feeder gives the same run, bit for bit.
  const ExperimentConfig config = TinyConfig();
  const ExperimentResult spec_run = RunExperiment(config);
  const workload::JobStream stream = config.workload.Generate();
  ExperimentConfig bare = config;
  bare.workload = {};
  Feeder feeder(&stream);
  const ExperimentResult feeder_run = RunExperiment(bare, feeder);
  EXPECT_EQ(feeder_run.metrics->tasks_submitted(), spec_run.metrics->tasks_submitted());
  EXPECT_EQ(feeder_run.metrics->tasks_completed(), spec_run.metrics->tasks_completed());
  EXPECT_EQ(feeder_run.switch_counters.passes, spec_run.switch_counters.passes);
  EXPECT_EQ(feeder_run.metrics->sched_delay().Percentile(0.99),
            spec_run.metrics->sched_delay().Percentile(0.99));
  EXPECT_EQ(feeder_run.offered_utilization, spec_run.offered_utilization);
}

TEST(FeederRunTest, WarmupIsCheckedAgainstTheFeedersLastArrival) {
  // No spec and no explicit horizon: the horizon is the stream's last
  // arrival + 50 ms, so a 60 ms warmup fits a 100 ms stream...
  ExperimentConfig config = TinyConfig();
  config.workload.duration = FromMillis(100);
  const workload::JobStream stream = config.workload.Generate();
  config.workload = {};
  config.horizon = 0;
  config.warmup = FromMillis(60);
  EXPECT_EQ(config.Validate(), "");
  Feeder feeder(&stream);
  EXPECT_GT(RunExperiment(config, feeder).metrics->tasks_completed(), 0u);

  // ...but not an empty one.
  const workload::JobStream empty;
  Feeder empty_feeder(&empty);
  EXPECT_THROW(RunExperiment(config, empty_feeder), CheckFailure);
}

// --- Deployment registry -----------------------------------------------------

TEST(DeploymentRegistryTest, EnumeratesAllKindsInEnumOrder) {
  const std::vector<DeploymentInfo>& infos = DeploymentRegistry::Get().all();
  ASSERT_EQ(infos.size(), 7u);
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(infos[i].kind), i);
    EXPECT_STREQ(SchedulerKindName(infos[i].kind), infos[i].canonical_name);
  }
}

TEST(DeploymentRegistryTest, FlagChoicesMatchRegistration) {
  const std::vector<std::string> choices = DeploymentRegistry::Get().FlagChoices();
  const std::vector<std::string> expected = {"draconis",  "dpdk-server", "socket-server",
                                             "r2p2",      "racksched",   "sparrow",
                                             "malcolm"};
  EXPECT_EQ(choices, expected);
}

TEST(DeploymentRegistryTest, FindByNameAcceptsCanonicalAndFlagSpellings) {
  const DeploymentRegistry& registry = DeploymentRegistry::Get();
  ASSERT_NE(registry.FindByName("Draconis-DPDK-Server"), nullptr);
  EXPECT_EQ(registry.FindByName("Draconis-DPDK-Server")->kind,
            SchedulerKind::kDraconisDpdkServer);
  ASSERT_NE(registry.FindByName("dpdk-server"), nullptr);
  EXPECT_EQ(registry.FindByName("dpdk-server")->kind, SchedulerKind::kDraconisDpdkServer);
  EXPECT_EQ(registry.FindByName("mesos"), nullptr);
}

// Registry-driven smoke matrix: every registered kind (x every policy it
// honors, x every intra-node dispatcher when it has one) pushes a tiny stream
// to completion and reports into the counter fields that kind owns. A new
// scheduler registered in the DeploymentRegistry is picked up here
// automatically.
TEST(DeploymentRegistryTest, SmokeMatrixEveryKindCompletesAndHarvests) {
  for (const DeploymentInfo& info : DeploymentRegistry::Get().all()) {
    std::vector<baselines::IntraNodePolicy> intras = {baselines::IntraNodePolicy::kFcfs};
    if (info.intra_node_dispatcher) {
      intras.push_back(baselines::IntraNodePolicy::kProcessorSharing);
      intras.push_back(baselines::IntraNodePolicy::kEdf);
    }
    for (PolicyKind policy : info.policies) {
      for (baselines::IntraNodePolicy intra : intras) {
        SCOPED_TRACE(std::string(info.canonical_name) + " / " + names::Name(policy) + " / " +
                     names::Name(intra));
        ExperimentConfig config = TinyConfig(20000.0);  // 25%: everything drains
        config.scheduler = info.kind;
        config.policy = policy;
        config.racksched_intra_policy = intra;
        if (policy == PolicyKind::kResource) {
          config.worker_resources = {0x1, 0x1};  // every worker can run tprops=0
        }
        ExperimentResult result = RunExperiment(config);

        EXPECT_GT(result.metrics->tasks_completed(), 0u);
        EXPECT_GE(result.metrics->tasks_completed(),
                  result.metrics->tasks_submitted() * 9 / 10);
        switch (info.kind) {
          case SchedulerKind::kDraconis:
            EXPECT_GT(result.counters.tasks_enqueued, 0u);
            EXPECT_GT(result.counters.tasks_assigned, 0u);
            EXPECT_GT(result.switch_counters.passes, 0u);
            break;
          case SchedulerKind::kDraconisDpdkServer:
          case SchedulerKind::kDraconisSocketServer:
            EXPECT_GT(result.counters.tasks_enqueued, 0u);
            EXPECT_GT(result.counters.tasks_assigned, 0u);
            break;
          case SchedulerKind::kR2P2:
            EXPECT_GT(result.counters.tasks_pushed, 0u);
            EXPECT_GT(result.counters.credits, 0u);
            EXPECT_GT(result.switch_counters.passes, 0u);
            break;
          case SchedulerKind::kRackSched:
          case SchedulerKind::kMalcolm:
            EXPECT_GT(result.counters.tasks_pushed, 0u);
            EXPECT_GT(result.counters.credits, 0u);
            EXPECT_GT(result.switch_counters.passes, 0u);
            break;
          case SchedulerKind::kSparrow:
            EXPECT_GT(result.counters.probes_sent, 0u);
            EXPECT_GT(result.counters.tasks_launched, 0u);
            break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace draconis::cluster
