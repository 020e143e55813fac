// DAG workload subsystem (src/dag/, docs/dag.md): JobSpec validation and
// JSON round-trips, shape generators, the critical-path lower bound, the
// frontier driver end to end through RunExperiment's DagDriver, straggler
// hedging, fault plans and multi-rack topologies on the DAG path, and the
// determinism contract (bit-identical repeats, including the per-point sweep
// runner override the hedging bench relies on).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/experiment.h"
#include "common/check.h"
#include "dag/dag_flags.h"
#include "dag/frontier_driver.h"
#include "dag/job_spec.h"
#include "sweep/report.h"
#include "sweep/sweep.h"

namespace draconis::dag {
namespace {

JobSpec Diamond() {
  // 0 -> {1, 2} -> 3 with distinct durations: critical path 0 -> 2 -> 3.
  JobSpec spec;
  spec.tasks.resize(4);
  spec.tasks[0].duration = FromMicros(100);
  spec.tasks[1].duration = FromMicros(50);
  spec.tasks[1].deps = {0};
  spec.tasks[2].duration = FromMicros(300);
  spec.tasks[2].deps = {0};
  spec.tasks[3].duration = FromMicros(100);
  spec.tasks[3].deps = {1, 2};
  return spec;
}

// ---------------------------------------------------------------------------
// JobSpec: validation, critical path, JSON round-trip
// ---------------------------------------------------------------------------

TEST(JobSpecTest, ValidateRejectsMalformedSpecs) {
  EXPECT_FALSE(JobSpec{}.Validate().empty()) << "empty job";

  JobSpec forward = Diamond();
  forward.tasks[1].deps = {3};  // forward edge = representable cycle attempt
  EXPECT_FALSE(forward.Validate().empty());

  JobSpec self = Diamond();
  self.tasks[2].deps = {2};
  EXPECT_FALSE(self.Validate().empty());

  JobSpec negative = Diamond();
  negative.tasks[0].duration = -1;
  EXPECT_FALSE(negative.Validate().empty());

  JobSpec duplicate = Diamond();
  duplicate.tasks[3].deps = {1, 1};
  EXPECT_FALSE(duplicate.Validate().empty());

  EXPECT_EQ(Diamond().Validate(), "");
}

TEST(JobSpecTest, CriticalPathIsTheLongestDurationWeightedChain) {
  EXPECT_EQ(Diamond().CriticalPathNs(), FromMicros(100 + 300 + 100));

  JobSpec chain;
  chain.tasks.resize(3);
  for (size_t i = 0; i < chain.tasks.size(); ++i) {
    chain.tasks[i].duration = FromMicros(10);
    if (i > 0) {
      chain.tasks[i].deps = {static_cast<uint32_t>(i - 1)};
    }
  }
  EXPECT_EQ(chain.CriticalPathNs(), FromMicros(30));

  // Independent tasks: the critical path is the single longest task.
  JobSpec flat;
  flat.tasks.resize(3);
  flat.tasks[0].duration = FromMicros(10);
  flat.tasks[1].duration = FromMicros(90);
  flat.tasks[2].duration = FromMicros(20);
  EXPECT_EQ(flat.CriticalPathNs(), FromMicros(90));
}

TEST(JobSpecTest, JsonRoundTripsExactly) {
  JobSpec spec = Diamond();
  spec.tasks[1].stage = 7;
  spec.tasks[2].tprops = 3;
  spec.tasks[3].fn_id = 2;
  spec.tasks[3].fn_par = 4096;

  json::Value value;
  std::string error;
  ASSERT_TRUE(json::Parse(spec.ToJson(), &value, &error)) << error;
  JobSpec parsed;
  ASSERT_TRUE(JobSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_EQ(parsed, spec);
}

TEST(JobSpecTest, FromJsonRejectsMalformedDocuments) {
  const std::vector<std::string> bad = {
      R"({})",                                            // no tasks
      R"({"tasks": 3})",                                  // wrong type
      R"({"tasks": []})",                                 // empty job
      R"({"tasks": [{"duration_ns": -5, "deps": []}]})",  // negative duration
      R"({"tasks": [{"deps": []}]})",                     // missing duration
      R"({"tasks": [{"duration_ns": 5, "deps": [0]}]})",  // self dependency
      R"({"tasks": [{"duration_ns": 5, "deps": ["x"]}]})",  // non-numeric dep
  };
  for (const std::string& text : bad) {
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::Parse(text, &value, &error)) << text;
    JobSpec parsed;
    EXPECT_FALSE(JobSpec::FromJson(value, &parsed, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JobSpecTest, FromJsonRejectsUnknownKeys) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {R"({"tasks": [{"duration_ns": 5}], "name": "x"})", R"(dag job has unknown key "name")"},
      {R"({"tasks": [{"duration_ns": 5}, {"duration_ns": 5, "dependencies": [0]}]})",
       R"(dag job: task 1 has unknown key "dependencies")"},
  };
  for (const auto& [text, expected] : bad) {
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::Parse(text, &value, &error)) << text;
    JobSpec parsed;
    EXPECT_FALSE(JobSpec::FromJson(value, &parsed, &error)) << text;
    EXPECT_NE(error.find(expected), std::string::npos) << text << ": " << error;
  }
}

// Every integer member is a checked read: a non-integral or out-of-range
// value is a located error, never a wrapped index or a CheckFailure.
TEST(JobSpecTest, FromJsonRejectsNonIntegralAndOutOfRangeIntegers) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      // 2^32 used to wrap to task 0, an accepted edge.
      {R"({"tasks": [{"duration_ns": 5}, {"duration_ns": 5, "deps": [4294967296]}]})",
       "task 1: deps entry"},
      {R"({"tasks": [{"duration_ns": 1.5}]})", "task 0: duration_ns"},
      {R"({"tasks": [{"duration_ns": 5, "deps": [-1]}]})", "task 0: deps entry"},
      {R"({"tasks": [{"duration_ns": 5, "stage": 4294967296}]})", "task 0: stage"},
      {R"({"tasks": [{"duration_ns": 5, "tprops": "x"}]})", "task 0: tprops"},
      {R"({"tasks": [{"duration_ns": 5, "fn_id": -1}]})", "task 0: fn_id"},
      {R"({"tasks": [{"duration_ns": 5, "fn_par": 0.5}]})", "task 0: fn_par"},
  };
  for (const auto& [text, where] : bad) {
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::Parse(text, &value, &error)) << text;
    JobSpec parsed;
    bool ok = true;
    EXPECT_NO_THROW(ok = JobSpec::FromJson(value, &parsed, &error)) << text;
    EXPECT_FALSE(ok) << text;
    EXPECT_NE(error.find(where), std::string::npos) << text << ": " << error;
  }
}

// ---------------------------------------------------------------------------
// DagWorkloadSpec: generators, determinism, JSON round-trip
// ---------------------------------------------------------------------------

DagWorkloadSpec SmallSpec(DagShape shape) {
  DagWorkloadSpec spec;
  spec.shape = shape;
  spec.depth = 4;
  spec.width = 3;
  spec.jobs_per_second = 500.0;
  spec.duration = FromMillis(20);
  spec.service = workload::ServiceTime::Fixed(FromMicros(200));
  spec.seed = 7;
  return spec;
}

TEST(DagWorkloadSpecTest, GeneratedJobsAreValidAndShaped) {
  for (DagShape shape : {DagShape::kChain, DagShape::kFanOutFanIn, DagShape::kRandom}) {
    const DagWorkloadSpec spec = SmallSpec(shape);
    const std::vector<DagJobArrival> jobs = spec.Generate();
    ASSERT_GT(jobs.size(), 0u) << names::Name(shape);
    TimeNs last = 0;
    for (const DagJobArrival& job : jobs) {
      EXPECT_GE(job.at, last);
      last = job.at;
      EXPECT_LT(job.at, spec.duration);
      EXPECT_EQ(job.spec.Validate(), "") << names::Name(shape);
      EXPECT_EQ(job.spec.tasks.size(), spec.TasksPerJob()) << names::Name(shape);
    }

    const JobSpec& first = jobs[0].spec;
    switch (shape) {
      case DagShape::kChain:
        ASSERT_EQ(first.tasks.size(), 4u);
        for (size_t i = 1; i < first.tasks.size(); ++i) {
          EXPECT_EQ(first.tasks[i].deps,
                    std::vector<uint32_t>{static_cast<uint32_t>(i - 1)});
        }
        break;
      case DagShape::kFanOutFanIn: {
        // 1 source + 2 middle levels x 3 + 1 sink.
        ASSERT_EQ(first.tasks.size(), 8u);
        EXPECT_TRUE(first.tasks[0].deps.empty());
        for (size_t i = 1; i <= 3; ++i) {
          EXPECT_EQ(first.tasks[i].deps, std::vector<uint32_t>{0u});
        }
        EXPECT_EQ(first.tasks.back().deps.size(), 3u) << "sink joins the last level";
        break;
      }
      case DagShape::kRandom:
        ASSERT_EQ(first.tasks.size(), 12u);
        for (size_t i = 1; i < first.tasks.size(); ++i) {
          EXPECT_GE(first.tasks[i].deps.size(), 1u) << "random DAGs stay connected";
        }
        break;
    }
  }
}

TEST(DagWorkloadSpecTest, GenerateIsAPureFunctionOfTheSpec) {
  const DagWorkloadSpec spec = SmallSpec(DagShape::kRandom);
  const std::vector<DagJobArrival> a = spec.Generate();
  const std::vector<DagJobArrival> b = spec.Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].spec, b[i].spec);
  }

  DagWorkloadSpec reseeded = spec;
  reseeded.seed = 8;
  const std::vector<DagJobArrival> c = reseeded.Generate();
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !(a[i].at == c[i].at && a[i].spec == c[i].spec);
  }
  EXPECT_TRUE(differs) << "a different seed must produce a different stream";
}

TEST(DagWorkloadSpecTest, JsonRoundTripsExactly) {
  DagWorkloadSpec spec = SmallSpec(DagShape::kRandom);
  spec.edge_prob = 0.4;
  spec.stage_services = {workload::ServiceTime::Fixed(FromMicros(100)),
                         workload::ServiceTime::Pareto(FromMicros(250), 1.3)};

  json::Value value;
  std::string error;
  ASSERT_TRUE(json::Parse(spec.ToJson(), &value, &error)) << error;
  DagWorkloadSpec parsed;
  ASSERT_TRUE(DagWorkloadSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_EQ(parsed.ToJson(), spec.ToJson());
  EXPECT_EQ(parsed.label(), spec.label());
}

TEST(DagWorkloadSpecTest, FromJsonRejectsNonIntegralAndOutOfRangeIntegers) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      // -1 used to wrap to a 2^32 - 1 level chain.
      {R"({"shape": "chain", "depth": -1})", "depth"},
      {R"({"shape": "random", "width": 2.5})", "width"},
      {R"({"shape": "chain", "duration_ns": 1.5})", "duration_ns"},
      {R"({"shape": "chain", "seed": -3})", "seed"},
      {R"({"shape": "chain", "depth": "3"})", "depth"},
  };
  for (const auto& [text, key] : bad) {
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::Parse(text, &value, &error)) << text;
    DagWorkloadSpec parsed;
    bool ok = true;
    EXPECT_NO_THROW(ok = DagWorkloadSpec::FromJson(value, &parsed, &error)) << text;
    EXPECT_FALSE(ok) << text;
    EXPECT_NE(error.find("dag workload: " + key), std::string::npos) << text << ": " << error;
  }
}

// A present number member must be a number, and every member the reader
// does not know is an error.
TEST(DagWorkloadSpecTest, FromJsonRejectsWrongTypedNumbersAndUnknownKeys) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {R"({"shape": "random", "edge_prob": "0.5"})", "dag workload: edge_prob must be a number"},
      {R"({"shape": "chain", "jobs_per_second": "1e5"})",
       "dag workload: jobs_per_second must be a number"},
      {R"({"shape": "chain", "dpeth": 3})", R"(dag workload has unknown key "dpeth")"},
      {R"({"shape": "ring"})", "dag workload: shape must be one of chain|fanout|random"},
      {R"({"shape": "chain", "service": 5})", "dag workload: service must be a service-time name"},
      {R"({"shape": "chain", "stage_services": ["fixed:1us", "warp"]})",
       "dag workload: stage_services entry: unknown service-time model 'warp'"},
  };
  for (const auto& [text, expected] : bad) {
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::Parse(text, &value, &error)) << text;
    DagWorkloadSpec parsed;
    EXPECT_FALSE(DagWorkloadSpec::FromJson(value, &parsed, &error)) << text;
    EXPECT_NE(error.find(expected), std::string::npos) << text << ": " << error;
  }
  json::Value value;
  std::string error;
  ASSERT_TRUE(json::Parse(R"({"shape": "Chain", "depth": 2})", &value, &error)) << error;
  DagWorkloadSpec parsed;
  ASSERT_TRUE(DagWorkloadSpec::FromJson(value, &parsed, &error)) << error;
  EXPECT_EQ(parsed.shape, DagShape::kChain);
}

TEST(DagWorkloadSpecTest, ValidateAndFlagsRejectBadValues) {
  DagWorkloadSpec zero_rate = SmallSpec(DagShape::kChain);
  zero_rate.jobs_per_second = 0.0;
  EXPECT_FALSE(zero_rate.Validate().empty());

  DagWorkloadSpec bad_prob = SmallSpec(DagShape::kRandom);
  bad_prob.edge_prob = 1.5;
  EXPECT_FALSE(bad_prob.Validate().empty());

  DagWorkloadSpec shallow = SmallSpec(DagShape::kFanOutFanIn);
  shallow.depth = 1;  // fan-out/fan-in needs a source and a sink
  EXPECT_FALSE(shallow.Validate().empty());

  DagFlags flags;
  flags.shape = "random";
  flags.edge_prob = -0.5;
  DagWorkloadSpec spec;
  HedgePolicy policy;
  std::string error;
  EXPECT_FALSE(flags.Apply(&spec, &policy, &error));
  EXPECT_FALSE(error.empty());

  DagFlags bad_hedge;
  bad_hedge.hedge_quantile = 1.5;
  error.clear();
  EXPECT_FALSE(bad_hedge.Apply(&spec, &policy, &error));
  EXPECT_FALSE(error.empty());
}

// DagWorkloadSpec holds 32-bit sizes: a flag value past UINT32_MAX is
// rejected by name instead of wrapping (4294967298 would run as 2).
TEST(DagWorkloadSpecTest, FlagsRejectSizesThatDoNotFitTheSpec) {
  DagWorkloadSpec spec;
  HedgePolicy policy;
  std::string error;

  DagFlags deep;
  deep.depth = 4294967298;
  EXPECT_FALSE(deep.Apply(&spec, &policy, &error));
  EXPECT_NE(error.find("--dag-depth"), std::string::npos) << error;

  DagFlags wide;
  wide.width = 4294967298;
  error.clear();
  EXPECT_FALSE(wide.Apply(&spec, &policy, &error));
  EXPECT_NE(error.find("--dag-width"), std::string::npos) << error;

  // The largest representable value is kept exactly.
  DagFlags widest;
  widest.width = UINT32_MAX;
  error.clear();
  EXPECT_TRUE(widest.Apply(&spec, &policy, &error)) << error;
  EXPECT_EQ(spec.width, UINT32_MAX);
}

// ---------------------------------------------------------------------------
// Frontier driver end to end
// ---------------------------------------------------------------------------

cluster::ExperimentConfig SmallCluster() {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = FromMillis(1);
  config.horizon = FromMillis(30);
  config.run_to_completion = true;
  config.timeout_multiplier = 10.0;
  config.seed = 42;
  return config;
}

cluster::ExperimentResult RunDag(const cluster::ExperimentConfig& config,
                                 const DagWorkloadSpec& workload, const HedgePolicy& hedge) {
  DagDriver driver(workload, hedge);
  return cluster::RunExperiment(config, driver);
}

TEST(DagExperimentTest, CompletesEveryJobAndRespectsTheLowerBound) {
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.jobs_per_second = 300.0;
  workload.duration = FromMillis(20);
  const cluster::ExperimentConfig config = SmallCluster();
  const cluster::ExperimentResult result = RunDag(config, workload, HedgePolicy{});

  const cluster::DagRunStats& dag = result.dag;
  ASSERT_TRUE(dag.active);
  EXPECT_GT(dag.jobs_submitted, 0u);
  // run_to_completion: every submitted job finishes, and in-window jobs all
  // land in the makespan histogram.
  EXPECT_GT(result.drain_time, 0);
  EXPECT_EQ(dag.jobs_completed, dag.jobs_submitted);
  EXPECT_EQ(dag.makespan.count(), dag.jobs_completed);
  EXPECT_EQ(dag.critical_path.count(), dag.jobs_completed);
  EXPECT_EQ(dag.tasks_submitted, dag.jobs_submitted * workload.TasksPerJob());
  // No hedging: nothing launched, nothing cancelled, nothing wasted.
  EXPECT_EQ(dag.hedges_launched, 0u);
  EXPECT_EQ(dag.replicas_cancelled, 0u);
  EXPECT_EQ(dag.wasted_work, 0);
  // The critical path is a hard lower bound on every observed makespan, so
  // the stretch histogram (makespan/critical-path in 1/1000ths) floors at 1.
  EXPECT_GE(dag.makespan.min(), dag.critical_path.min());
  EXPECT_GE(dag.stretch_milli.min(), 1000);
  // Dependencies serialize: a job completes no sooner than its chain.
  EXPECT_GT(dag.makespan.Mean(), 0.0);
}

TEST(DagExperimentTest, HedgingRescuesStragglersDeterministically) {
  // Heavy-tailed stage services: elephants on the fan-in path are near
  // certain across this many jobs.
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.service = workload::ServiceTime::Pareto(FromMicros(200), 1.2);
  workload.jobs_per_second = 300.0;
  workload.duration = FromMillis(20);
  const cluster::ExperimentConfig config = SmallCluster();

  HedgePolicy hedge;
  hedge.enabled = true;
  hedge.min_samples = 16;
  hedge.initial_delay = FromMillis(1);
  const cluster::ExperimentResult hedged = RunDag(config, workload, hedge);
  ASSERT_TRUE(hedged.dag.active);
  EXPECT_GT(hedged.dag.hedges_launched, 0u);
  EXPECT_GT(hedged.dag.hedge_wins, 0u) << "some resampled replicas must win their race";
  // run_to_completion decides every race, and each decided race cancels
  // exactly one replica.
  EXPECT_EQ(hedged.dag.replicas_cancelled, hedged.dag.hedges_launched);
  EXPECT_LE(hedged.dag.hedge_wins, hedged.dag.hedges_launched);
  EXPECT_GT(hedged.dag.wasted_work, 0);
  EXPECT_GT(hedged.dag.wasted_work_fraction, 0.0);
  EXPECT_LT(hedged.dag.wasted_work_fraction, 1.0);

  // Both modes are deterministic: hedging off consumes zero RNG, hedging on
  // draws from its own fixed SeedDomain::kDag stream — repeats of either are
  // bit-identical, report and all.
  const cluster::ExperimentResult off_a = RunDag(config, workload, HedgePolicy{});
  const cluster::ExperimentResult off_b = RunDag(config, workload, HedgePolicy{});
  EXPECT_EQ(sweep::ToJson(off_a), sweep::ToJson(off_b));
  const cluster::ExperimentResult on_again = RunDag(config, workload, hedge);
  EXPECT_EQ(sweep::ToJson(hedged), sweep::ToJson(on_again));
}

// Exact cross-commit pin of the two SmallCluster() fan-out/fan-in runs above
// (unhedged fixed services; hedged Pareto services). Any change to event
// ordering, seeding or harvest on the DAG path moves at least one of these.
struct DagGolden {
  uint64_t jobs_completed;
  uint64_t tasks_completed;
  TimeNs drain_time;
  TimeNs makespan_p50;
  TimeNs makespan_p99;
  uint64_t hedges_launched;
  uint64_t hedge_wins;
  uint64_t replicas_cancelled;
  TimeNs wasted_work;
  // Whole-run fingerprints (cluster::ExperimentResult).
  uint64_t order_fingerprint;
  uint64_t outcome_fingerprint;
};

void ExpectGolden(const cluster::ExperimentResult& result, const DagGolden& want) {
  const cluster::DagRunStats& dag = result.dag;
  ASSERT_TRUE(dag.active);
  EXPECT_EQ(dag.jobs_completed, want.jobs_completed);
  EXPECT_EQ(result.metrics->tasks_completed(), want.tasks_completed);
  EXPECT_EQ(result.drain_time, want.drain_time);
  EXPECT_EQ(dag.makespan.Percentile(0.50), want.makespan_p50);
  EXPECT_EQ(dag.makespan.Percentile(0.99), want.makespan_p99);
  EXPECT_EQ(dag.hedges_launched, want.hedges_launched);
  EXPECT_EQ(dag.hedge_wins, want.hedge_wins);
  EXPECT_EQ(dag.replicas_cancelled, want.replicas_cancelled);
  EXPECT_EQ(dag.wasted_work, want.wasted_work);
  EXPECT_EQ(result.order_fingerprint, want.order_fingerprint)
      << std::hex << "order fingerprint 0x" << result.order_fingerprint;
  EXPECT_EQ(result.outcome_fingerprint, want.outcome_fingerprint)
      << std::hex << "outcome fingerprint 0x" << result.outcome_fingerprint;
}

TEST(DagExperimentTest, GoldenFanOutFanInRunsArePinned) {
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.jobs_per_second = 300.0;
  workload.duration = FromMillis(20);
  const cluster::ExperimentConfig config = SmallCluster();
  ExpectGolden(RunDag(config, workload, HedgePolicy{}),
               {4, 32, FromMillis(20), 831546, 831546, 0, 0, 0, 0, 0xac6f98c961eea351,
                0xd2b3798b9b5032c3});

  workload.service = workload::ServiceTime::Pareto(FromMicros(200), 1.2);
  HedgePolicy hedge;
  hedge.enabled = true;
  hedge.min_samples = 16;
  hedge.initial_delay = FromMillis(1);
  ExpectGolden(RunDag(config, workload, hedge),
               {4, 32, FromMillis(20), 1376255, 1441791, 4, 4, 4, 235582,
                0x37f1882132807dd9, 0x80a8ad98b3d7c5a4});
}

// ---------------------------------------------------------------------------
// The DAG driver on the shared orchestrator: fault plans and topologies
// ---------------------------------------------------------------------------

DagWorkloadSpec FanOutStream() {
  DagWorkloadSpec workload = SmallSpec(DagShape::kFanOutFanIn);
  workload.jobs_per_second = 300.0;
  workload.duration = FromMillis(20);
  return workload;
}

TEST(DagExperimentTest, SurvivesASchedulerFailover) {
  cluster::ExperimentConfig config = SmallCluster();
  config.fault_plan.SchedulerFailover(FromMillis(10));
  const cluster::ExperimentResult result = RunDag(config, FanOutStream(), HedgePolicy{});

  ASSERT_TRUE(result.dag.active);
  EXPECT_GT(result.drain_time, 0) << "run_to_completion must drain every job";
  EXPECT_GT(result.dag.jobs_submitted, 0u);
  EXPECT_EQ(result.dag.jobs_completed, result.dag.jobs_submitted);
  EXPECT_TRUE(result.recovery.fault_plan_active);
  EXPECT_GT(result.recovery.client_rehomes, 0u);
  EXPECT_EQ(result.recovery.tasks_lost, 0u);
}

TEST(DagExperimentTest, RunsOnAMultiRackTopology) {
  cluster::ExperimentConfig config = SmallCluster();
  config.cluster = topology::ClusterTopology::Uniform(2, 2, 4);
  const DagWorkloadSpec workload = FanOutStream();
  const cluster::ExperimentResult result = RunDag(config, workload, HedgePolicy{});

  ASSERT_TRUE(result.dag.active);
  EXPECT_EQ(result.num_racks, 2u);
  EXPECT_GT(result.drain_time, 0) << "run_to_completion must drain every job";
  EXPECT_GT(result.dag.jobs_submitted, 0u);
  EXPECT_EQ(result.dag.jobs_completed, result.dag.jobs_submitted);
  EXPECT_EQ(sweep::ToJson(result), sweep::ToJson(RunDag(config, workload, HedgePolicy{})));
}

TEST(DagExperimentTest, RefusesNoopExecutors) {
  cluster::ExperimentConfig config = SmallCluster();
  config.noop_executors = true;
  try {
    RunDag(config, FanOutStream(), HedgePolicy{});
    ADD_FAILURE() << "a DAG run on no-op executors must be refused";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("noop_executors"), std::string::npos) << e.what();
  }
}

TEST(DagExperimentTest, SweepPointRunnerOverrideCarriesTheHedgePolicy) {
  // The hedging bench mixes hedging-on and hedging-off series in one sweep
  // via SweepPoint::run; the override must beat SweepSpec::run and flow the
  // point's config through untouched.
  // Dense enough that the [warmup, horizon) metrics window is never empty —
  // job-level counters are window-gated by arrival time.
  DagWorkloadSpec workload = SmallSpec(DagShape::kChain);
  workload.jobs_per_second = 2000.0;
  workload.duration = FromMillis(10);

  sweep::SweepSpec spec;
  spec.name = "dag_test";
  spec.run = [](const cluster::ExperimentConfig&) {
    ADD_FAILURE() << "SweepPoint::run must override SweepSpec::run";
    return cluster::ExperimentResult{};
  };
  sweep::SweepPoint point;
  point.label = "dag";
  point.config = SmallCluster();
  point.run = [workload](const cluster::ExperimentConfig& config) {
    return RunDag(config, workload, HedgePolicy{});
  };
  spec.points.push_back(std::move(point));
  sweep::SweepPoint plain;
  plain.label = "plain";
  plain.config = SmallCluster();
  plain.config.run_to_completion = false;
  plain.config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  plain.config.workload.tasks_per_second = 1000.0;
  plain.config.workload.duration = plain.config.horizon;
  plain.config.workload.service = workload::ServiceTime::Fixed(FromMicros(100));
  spec.run = nullptr;  // fall through to RunExperiment for the plain point
  spec.points.push_back(std::move(plain));

  const std::vector<sweep::SweepPointResult> results = sweep::RunSweep(spec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].result.dag.active);
  EXPECT_GT(results[0].result.dag.jobs_completed, 0u);
  EXPECT_FALSE(results[1].result.dag.active);
  // The JSON report carries the dag block only for the DAG point.
  EXPECT_NE(sweep::ToJson(results[0].result).find("\"dag\""), std::string::npos);
  EXPECT_EQ(sweep::ToJson(results[1].result).find("\"dag\""), std::string::npos);
}

}  // namespace
}  // namespace draconis::dag
