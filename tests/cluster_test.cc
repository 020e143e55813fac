// Unit and small-scenario tests for the cluster layer: clients (timeouts,
// retries, MTU splitting, parameter serving), executors (pull loop, backoff,
// watchdog, §4.4 parameter fetch), the metrics hub, and §3.3 switch failover.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/executor.h"
#include "cluster/metrics.h"
#include "cluster/testbed.h"
#include "common/check.h"
#include "core/draconis_program.h"
#include "core/policy.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "sim/simulator.h"

namespace draconis::cluster {
namespace {

class Probe : public net::Endpoint {
 public:
  void HandlePacket(net::Packet pkt) override { received.push_back(std::move(pkt)); }
  size_t CountOf(net::OpCode op) const {
    size_t n = 0;
    for (const auto& p : received) {
      n += p.op == op ? 1 : 0;
    }
    return n;
  }
  std::vector<net::Packet> received;
};

// ---------------------------------------------------------------------------
// MetricsHub
// ---------------------------------------------------------------------------

TEST(MetricsHubTest, WindowFiltersByFirstSubmission) {
  MetricsHub hub(100, 200);
  net::TaskInfo in_window;
  in_window.id = net::TaskId{0, 0, 1};
  in_window.meta.first_submit_time = 150;
  net::TaskInfo before;
  before.id = net::TaskId{0, 0, 2};
  before.meta.first_submit_time = 50;
  net::TaskInfo after;
  after.id = net::TaskId{0, 0, 3};
  after.meta.first_submit_time = 250;

  hub.RecordExecutionStart(in_window, 160);
  hub.RecordExecutionStart(before, 60);
  hub.RecordExecutionStart(after, 260);
  EXPECT_EQ(hub.sched_delay().count(), 1u);
  EXPECT_EQ(hub.sched_delay().max(), 10);
}

// Duplicate detection keys on the ordinal each task gets at submission, a
// field that must fit the TaskInfo's existing padding.
static_assert(sizeof(net::TaskInfo) == 80);

TEST(MetricsHubTest, FirstExecutionDeduplicates) {
  MetricsHub hub(0, 1000);
  net::TaskInfo task;
  task.id = net::TaskId{1, 2, 3};
  task.meta.first_submit_time = 10;
  hub.RecordSubmission(task);
  net::TaskInfo sibling = task;
  sibling.id.tid = 4;
  hub.RecordSubmission(sibling);
  EXPECT_EQ(hub.tasks_submitted(), 2u);

  net::TaskInfo replica = task;  // a resubmission copies the TaskInfo
  replica.meta.attempt = 1;
  EXPECT_TRUE(hub.FirstExecution(task));
  EXPECT_FALSE(hub.FirstExecution(replica));
  EXPECT_FALSE(hub.FirstExecution(task));
  EXPECT_TRUE(hub.FirstExecution(sibling));
}

TEST(MetricsHubTest, ExecutingAnUnsubmittedTaskFailsACheckNamingIt) {
  MetricsHub hub(0, 1000);
  net::TaskInfo submitted;
  hub.RecordSubmission(submitted);
  net::TaskInfo stray;
  stray.id = net::TaskId{7, 8, 9};
  try {
    hub.FirstExecution(stray);
    FAIL() << "an unsubmitted task executed";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("<7, 8, 9>"), std::string::npos) << e.what();
  }
}

TEST(MetricsHubTest, BusyIntervalClampedToWindow) {
  MetricsHub hub(100, 200);
  hub.RecordBusyInterval(50, 150);   // clipped to [100, 150]
  hub.RecordBusyInterval(150, 250);  // clipped to [150, 200]
  hub.RecordBusyInterval(300, 400);  // outside entirely
  EXPECT_EQ(hub.total_busy(), 100);
}

TEST(MetricsHubTest, PriorityHistogramsClampLevels) {
  MetricsHub hub(0, 1000, 0, 4);
  net::TaskInfo task;
  task.meta.first_submit_time = 1;
  task.meta.enqueue_time = 1;
  task.tprops = 99;  // clamps to level 4
  hub.RecordAssignment(task, 11);
  EXPECT_EQ(hub.priority_queueing(4).count(), 1u);
}

TEST(MetricsHubTest, PlacementCounters) {
  MetricsHub hub(0, 1000);
  hub.RecordPlacement(net::TaskInfo::Placement::kLocal);
  hub.RecordPlacement(net::TaskInfo::Placement::kLocal);
  hub.RecordPlacement(net::TaskInfo::Placement::kRemote);
  EXPECT_EQ(hub.placements(net::TaskInfo::Placement::kLocal), 2u);
  EXPECT_EQ(hub.placements(net::TaskInfo::Placement::kSameRack), 0u);
  EXPECT_EQ(hub.placements(net::TaskInfo::Placement::kRemote), 1u);
}

TEST(MetricsHubTest, NodeCompletionTotals) {
  MetricsHub hub(0, kSecond, 2);
  hub.RecordNodeCompletion(0, 10);
  hub.RecordNodeCompletion(1, 20);
  hub.RecordNodeCompletion(7, 30);  // unknown node: counted in the total only
  EXPECT_EQ(hub.total_node_completions(), 3u);
  EXPECT_DOUBLE_EQ(hub.node_completions(0).BucketSum(0), 1.0);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

class ClientTest : public ::testing::Test {
 protected:
  ClientTest()
      : simulator(testbed.simulator()),
        network(testbed.network()),
        metrics(*testbed.metrics()) {}

  Client& MakeClient(ClientConfig config = {}) {
    client = std::make_unique<Client>(&testbed, config);
    scheduler_node = network.Register(&scheduler, net::HostProfile::Wire());
    client->SetScheduler(scheduler_node);
    return *client;
  }

  Testbed testbed{TestbedConfig{}};
  sim::Simulator& simulator;
  net::Network& network;
  MetricsHub& metrics;
  std::unique_ptr<Client> client;
  Probe scheduler;
  net::NodeId scheduler_node = net::kInvalidNode;
};

TEST_F(ClientTest, SubmitsJobAsOnePacketWhenItFits) {
  Client& c = MakeClient();
  c.SubmitJob(std::vector<TaskSpec>(5));
  simulator.RunUntil(FromMicros(50));
  ASSERT_EQ(scheduler.received.size(), 1u);
  EXPECT_EQ(scheduler.received[0].tasks.size(), 5u);
  EXPECT_EQ(c.outstanding(), 5u);
}

TEST_F(ClientTest, SplitsLargeJobsAtTheMtu) {
  Client& c = MakeClient();
  const size_t max = net::MaxTasksPerPacket();
  c.SubmitJob(std::vector<TaskSpec>(max + 3));
  simulator.RunUntil(FromMicros(40));  // before the no-reply timeouts fire
  ASSERT_EQ(scheduler.received.size(), 2u);
  EXPECT_EQ(scheduler.received[0].tasks.size(), max);
  EXPECT_EQ(scheduler.received[1].tasks.size(), 3u);
  for (const auto& pkt : scheduler.received) {
    EXPECT_LE(pkt.WireSize(), net::kMtuBytes);
  }
}

TEST_F(ClientTest, SingleTaskPacketModeSendsTrains) {
  ClientConfig config;
  config.max_tasks_per_packet = 1;
  Client& c = MakeClient(config);
  c.SubmitJob(std::vector<TaskSpec>(4));
  simulator.RunUntil(FromMicros(40));  // before the no-reply timeouts fire
  EXPECT_EQ(scheduler.received.size(), 4u);
}

TEST_F(ClientTest, TimeoutResubmitsWithBackoff) {
  ClientConfig config;
  config.timeout_multiplier = 2.0;
  Client& c = MakeClient(config);
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});  // the scheduler probe never answers

  simulator.RunUntil(FromMicros(250));  // past the 200 us timeout
  EXPECT_EQ(metrics.timeout_resubmissions(), 1u);
  EXPECT_EQ(scheduler.CountOf(net::OpCode::kJobSubmission), 2u);

  // Second timeout doubles: fires at ~200 + 400 us.
  simulator.RunUntil(FromMicros(500));
  EXPECT_EQ(metrics.timeout_resubmissions(), 1u);
  simulator.RunUntil(FromMicros(700));
  EXPECT_EQ(metrics.timeout_resubmissions(), 2u);
}

// Every task the scheduler probe has received, in arrival order.
std::vector<net::TaskInfo> ReceivedTasks(const Probe& scheduler) {
  std::vector<net::TaskInfo> tasks;
  for (const net::Packet& pkt : scheduler.received) {
    tasks.insert(tasks.end(), pkt.tasks.begin(), pkt.tasks.end());
  }
  return tasks;
}

TEST_F(ClientTest, SameJobAndTaskIdsUnderTwoUidsAreTwoTasks) {
  ClientConfig config;
  config.uid = 0;
  MakeClient(config).SubmitJob({TaskSpec{}});
  config.uid = 1;
  Client other(&testbed, config);
  other.SetScheduler(scheduler_node);
  other.SubmitJob({TaskSpec{}});
  simulator.RunUntil(FromMicros(20));
  const std::vector<net::TaskInfo> tasks = ReceivedTasks(scheduler);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_NE(tasks[0].id.uid, tasks[1].id.uid);
  EXPECT_EQ(tasks[0].id.jid, tasks[1].id.jid);
  EXPECT_EQ(tasks[0].id.tid, tasks[1].id.tid);
  EXPECT_TRUE(metrics.FirstExecution(tasks[0]));
  EXPECT_TRUE(metrics.FirstExecution(tasks[1]));
  EXPECT_FALSE(metrics.FirstExecution(tasks[0]));
  EXPECT_FALSE(metrics.FirstExecution(tasks[1]));
}

TEST_F(ClientTest, JobsOfMoreThan64TasksDeduplicateEveryTask) {
  Client& c = MakeClient();
  c.SubmitJob(std::vector<TaskSpec>(3));
  c.SubmitJob(std::vector<TaskSpec>(150));  // tids 64..149 span several packets
  c.SubmitJob(std::vector<TaskSpec>(2));
  simulator.RunUntil(FromMicros(40));  // before the no-reply timeouts fire
  const std::vector<net::TaskInfo> tasks = ReceivedTasks(scheduler);
  ASSERT_EQ(tasks.size(), 155u);
  EXPECT_EQ(tasks[152].id.tid, 149u);
  // Execute the big job's high tids first, then the rest, then all again.
  for (size_t i = tasks.size(); i-- > 0;) {
    EXPECT_TRUE(metrics.FirstExecution(tasks[i])) << i;
  }
  for (const net::TaskInfo& task : tasks) {
    EXPECT_FALSE(metrics.FirstExecution(task)) << task.id.jid << "/" << task.id.tid;
  }
}

TEST_F(ClientTest, TimeoutResubmissionIsDetectedAsADuplicate) {
  ClientConfig config;
  config.timeout_multiplier = 2.0;
  Client& c = MakeClient(config);
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});  // the scheduler probe never answers
  simulator.RunUntil(FromMicros(250));  // past the 200 us timeout
  const std::vector<net::TaskInfo> tasks = ReceivedTasks(scheduler);
  ASSERT_EQ(tasks.size(), 2u);
  ASSERT_EQ(tasks[1].meta.attempt, 1u);
  EXPECT_TRUE(metrics.FirstExecution(tasks[0]));
  EXPECT_FALSE(metrics.FirstExecution(tasks[1]));
}

TEST_F(ClientTest, HedgeReplicaIsDetectedAsADuplicate) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMillis(5);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  ASSERT_TRUE(c.HedgeTask(ReceivedTasks(scheduler).at(0).id));
  simulator.RunUntil(FromMicros(40));
  const std::vector<net::TaskInfo> tasks = ReceivedTasks(scheduler);
  ASSERT_EQ(tasks.size(), 2u);
  // Whichever replica starts first is the first execution.
  EXPECT_TRUE(metrics.FirstExecution(tasks[1]));
  EXPECT_FALSE(metrics.FirstExecution(tasks[0]));
}

TEST_F(ClientTest, TimeoutsSaturateInsteadOfOverflowing) {
  ClientConfig config;
  config.timeout_multiplier = 1e9;  // "never resubmit", as fig13 configures it
  Client& c = MakeClient(config);
  TaskSpec longest;
  longest.duration = FromSeconds(20);  // 2e19 ns scaled: past 2^63
  c.SubmitJob({longest});
  TaskSpec hedged;
  hedged.duration = FromSeconds(6);  // 6e18 ns scaled fits; doubled by a hedge it does not
  c.SubmitJob({hedged});
  simulator.RunUntil(FromMicros(20));
  ASSERT_TRUE(c.HedgeTask(net::TaskId{0, 1, 0}));
  simulator.RunUntil(FromMillis(10));
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
  EXPECT_EQ(c.outstanding(), 2u);
}

TEST_F(ClientTest, CompletionCancelsTimeoutAndIgnoresDuplicates) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  ASSERT_EQ(scheduler.received.size(), 1u);
  net::TaskInfo task = scheduler.received[0].tasks[0];

  net::Packet notice;
  notice.op = net::OpCode::kCompletionNotice;
  notice.dst = c.node_id();
  notice.tasks = {task};
  network.Send(scheduler_node, notice);
  network.Send(scheduler_node, notice);  // duplicate
  simulator.RunUntil(FromSeconds(1));

  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(c.completions(), 1u);
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
  EXPECT_EQ(metrics.e2e_delay().count(), 1u);
}

TEST_F(ClientTest, HedgeResendsWithNextAttemptAndResampledDuration) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMillis(5);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  ASSERT_EQ(scheduler.received.size(), 1u);
  const net::TaskInfo original = scheduler.received[0].tasks[0];

  EXPECT_TRUE(c.HedgeTask(original.id, FromMicros(100)));
  EXPECT_FALSE(c.HedgeTask(original.id)) << "at most one hedge per task";
  simulator.RunUntil(FromMicros(40));
  ASSERT_EQ(scheduler.received.size(), 2u);
  const net::TaskInfo& duplicate = scheduler.received[1].tasks[0];
  EXPECT_EQ(duplicate.id, original.id);
  EXPECT_EQ(duplicate.meta.attempt, original.meta.attempt + 1);
  EXPECT_EQ(duplicate.meta.exec_duration, FromMicros(100));
  EXPECT_EQ(c.hedges(), 1u);
  EXPECT_EQ(metrics.hedges_launched(), 1u);
}

TEST_F(ClientTest, CancelStopsTrackingAndSuppressesTheLateNotice) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  const net::TaskInfo task = scheduler.received[0].tasks[0];

  EXPECT_TRUE(c.CancelTask(task.id));
  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(c.cancellations(), 1u);
  EXPECT_EQ(metrics.cancellations(), 1u);

  // The replica in flight still "completes"; its notice must be suppressed
  // and the cancelled timeout must never resubmit.
  net::Packet notice;
  notice.op = net::OpCode::kCompletionNotice;
  notice.dst = c.node_id();
  notice.tasks = {task};
  network.Send(scheduler_node, notice);
  simulator.RunUntil(FromSeconds(1));
  EXPECT_EQ(c.completions(), 0u);
  EXPECT_EQ(metrics.e2e_delay().count(), 0u);
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
}

TEST_F(ClientTest, CancelOfCompletedTaskIsAStrictNoOp) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  const net::TaskInfo task = scheduler.received[0].tasks[0];

  net::Packet notice;
  notice.op = net::OpCode::kCompletionNotice;
  notice.dst = c.node_id();
  notice.tasks = {task};
  network.Send(scheduler_node, notice);
  simulator.RunUntil(FromMicros(200));
  ASSERT_EQ(c.completions(), 1u);

  // Cancelling after the completion (or cancelling twice) must not move any
  // counter: the race "completion beat the cancel" cannot double-count.
  EXPECT_FALSE(c.CancelTask(task.id));
  EXPECT_FALSE(c.CancelTask(task.id));
  EXPECT_EQ(c.cancellations(), 0u);
  EXPECT_EQ(metrics.cancellations(), 0u);
  EXPECT_EQ(c.completions(), 1u);
  // Hedging a completed task is refused the same way.
  EXPECT_FALSE(c.HedgeTask(task.id));
  EXPECT_EQ(c.hedges(), 0u);
}

TEST_F(ClientTest, QueueFullErrorRetriesAfterWait) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  net::TaskInfo task = scheduler.received[0].tasks[0];

  net::Packet error;
  error.op = net::OpCode::kErrorQueueFull;
  error.dst = c.node_id();
  error.tasks = {task};
  network.Send(scheduler_node, std::move(error));
  simulator.RunUntil(FromMicros(100));  // the 50 us wait is still running
  EXPECT_EQ(scheduler.CountOf(net::OpCode::kJobSubmission), 2u);
  EXPECT_EQ(metrics.queue_full_retries(), 1u);
}

TEST_F(ClientTest, FireAndForgetTracksNothing) {
  ClientConfig config;
  config.fire_and_forget = true;
  Client& c = MakeClient(config);
  c.SubmitJob(std::vector<TaskSpec>(8));
  simulator.RunUntil(FromSeconds(5));
  EXPECT_EQ(c.outstanding(), 0u);
  EXPECT_EQ(metrics.timeout_resubmissions(), 0u);
}

TEST_F(ClientTest, ServesParamFetches) {
  Client& c = MakeClient();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  spec.oversized_param_bytes = 4096;
  c.SubmitJob({spec});
  simulator.RunUntil(FromMicros(20));
  net::TaskInfo task = scheduler.received[0].tasks[0];
  EXPECT_EQ(task.fn_id, net::kTransmissionFnId);
  EXPECT_EQ(task.fn_par, 4096u);

  net::Packet fetch;
  fetch.op = net::OpCode::kParamFetch;
  fetch.dst = c.node_id();
  fetch.tasks = {task};
  network.Send(scheduler_node, std::move(fetch));
  simulator.RunUntil(FromMicros(100));
  ASSERT_EQ(scheduler.CountOf(net::OpCode::kParamData), 1u);
  for (const auto& pkt : scheduler.received) {
    if (pkt.op == net::OpCode::kParamData) {
      EXPECT_EQ(pkt.payload_bytes, 4096u);
    }
  }
}

// ---------------------------------------------------------------------------
// Executor against a real switch
// ---------------------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : simulator(testbed.simulator()),
        network(testbed.network()),
        metrics(*testbed.metrics()),
        program(&policy, core::DraconisConfig{}),
        pipeline(testbed, &program, p4::PipelineConfig{}) {
    switch_node = pipeline.node_id();
    client = std::make_unique<Client>(&testbed, ClientConfig{});
    client->SetScheduler(switch_node);
  }

  Executor& MakeExecutor(ExecutorConfig config = {}) {
    executor = std::make_unique<Executor>(&testbed, config);
    executor->Start(switch_node, 1);
    return *executor;
  }

  Testbed testbed{TestbedConfig{}};
  sim::Simulator& simulator;
  net::Network& network;
  MetricsHub& metrics;
  core::FcfsPolicy policy;
  core::DraconisProgram program;
  p4::SwitchPipeline pipeline;
  std::unique_ptr<Client> client;
  std::unique_ptr<Executor> executor;
  net::NodeId switch_node = net::kInvalidNode;
};

TEST_F(ExecutorTest, PullLoopExecutesSubmittedTask) {
  Executor& ex = MakeExecutor();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  simulator.ScheduleAt(FromMicros(30), [&] { client->SubmitJob({spec}); });
  simulator.RunUntil(FromMillis(1));
  EXPECT_EQ(ex.tasks_executed(), 1u);
  EXPECT_EQ(client->completions(), 1u);
  EXPECT_GE(ex.busy_time(), FromMicros(100));
}

TEST_F(ExecutorTest, BacksOffWhileIdle) {
  MakeExecutor();
  simulator.RunUntil(FromMillis(2));
  // With 2 us initial and 8 us cap (plus ~3.5 us RTT), an idle executor
  // polls a few hundred times in 2 ms — not thousands (no 2 us hammering),
  // not a handful.
  const uint64_t polls = program.counters().noops_sent;
  EXPECT_GT(polls, 100u);
  EXPECT_LT(polls, 1000u);
}

TEST_F(ExecutorTest, WatchdogRecoversFromLostReply) {
  ExecutorConfig config;
  config.request_timeout = FromMicros(200);
  Executor& ex = MakeExecutor(config);
  // Black-hole the switch->executor direction briefly: replies are lost.
  network.InjectDrop(switch_node, ex.node_id(), 1.0);
  simulator.RunUntil(FromMillis(1));
  network.ClearDropRules();
  TaskSpec spec;
  spec.duration = FromMicros(50);
  client->SubmitJob({spec});
  simulator.RunUntil(FromMillis(3));
  EXPECT_EQ(ex.tasks_executed(), 1u) << "watchdog failed to re-request";
}

TEST_F(ExecutorTest, FetchesOversizedParamsBeforeRunning) {
  Executor& ex = MakeExecutor();
  TaskSpec spec;
  spec.duration = FromMicros(100);
  spec.oversized_param_bytes = 32 * 1024;
  simulator.ScheduleAt(FromMicros(30), [&] { client->SubmitJob({spec}); });
  simulator.RunUntil(FromMillis(2));
  EXPECT_EQ(ex.tasks_executed(), 1u);
  EXPECT_EQ(client->completions(), 1u);
  // The execution start includes the client round trip for the parameters:
  // at least two extra one-way hops beyond the normal ~3-4 us pull path.
  EXPECT_GT(metrics.sched_delay().max(), FromMicros(7));
}

TEST_F(ExecutorTest, ParamFetchSurvivesLostData) {
  ExecutorConfig config;
  config.request_timeout = FromMicros(300);
  Executor& ex = MakeExecutor(config);
  TaskSpec spec;
  spec.duration = FromMicros(100);
  spec.oversized_param_bytes = 1024;
  simulator.ScheduleAt(FromMicros(30), [&] { client->SubmitJob({spec}); });
  // Lose the first fetch request(s).
  network.InjectDrop(ex.node_id(), client->node_id(), 1.0);
  simulator.ScheduleAt(FromMillis(1), [&] { network.ClearDropRules(); });
  simulator.RunUntil(FromMillis(5));
  // The client may have resubmitted (duplicates execute too), but it counts
  // exactly one completion and the fetch retry eventually succeeded.
  EXPECT_GE(ex.tasks_executed(), 1u);
  EXPECT_EQ(client->completions(), 1u);
}

// ---------------------------------------------------------------------------
// §3.3 switch failover
// ---------------------------------------------------------------------------

TEST(FailoverTest, ClusterSurvivesSwitchFailure) {
  Testbed testbed{TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  net::Network& network = testbed.network();
  MetricsHub& metrics = *testbed.metrics();

  core::FcfsPolicy policy;
  core::DraconisConfig dc;
  core::DraconisProgram program_a(&policy, dc);
  core::DraconisProgram program_b(&policy, dc);
  p4::SwitchPipeline switch_a(testbed, &program_a, p4::PipelineConfig{});
  p4::SwitchPipeline switch_b(&simulator, &program_b, p4::PipelineConfig{});
  const net::NodeId node_a = switch_a.node_id();
  const net::NodeId node_b = switch_b.AttachNetwork(&network);
  // (The fabric treats the most recently attached pipeline as the ToR for
  // hop accounting; immaterial for this test.)

  std::vector<std::unique_ptr<Executor>> executors;
  for (int i = 0; i < 4; ++i) {
    ExecutorConfig config;
    config.request_timeout = FromMicros(500);
    executors.push_back(std::make_unique<Executor>(&testbed, config));
    executors.back()->Start(node_a, 1 + i * 100);
  }
  ClientConfig cc;
  cc.timeout_multiplier = 3.0;
  Client client(&testbed, cc);
  client.SetScheduler(node_a);

  // Submit 16-task bursts (4 executors -> each burst queues deep); the
  // primary switch dies mid-burst with tasks parked in its queue, and the
  // control plane re-points everyone at the standby.
  for (int burst = 0; burst < 10; ++burst) {
    simulator.ScheduleAt(1 + burst * FromMicros(500), [&] {
      client.SubmitJob(std::vector<TaskSpec>(16, TaskSpec{FromMicros(100), 0, 0, 0, 0}));
    });
  }
  simulator.ScheduleAt(FromMillis(2) + FromMicros(60), [&] {
    network.Disconnect(node_a);
    client.SetScheduler(node_b);
    for (auto& executor : executors) {
      executor->Rehome(node_b);
    }
  });

  simulator.RunUntil(FromSeconds(2));
  // Every task completes: tasks parked in the dead switch's queue are
  // resubmitted by client timeouts, and executor watchdogs re-pull.
  EXPECT_EQ(client.completions(), 160u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_GT(metrics.timeout_resubmissions(), 0u);
  EXPECT_GT(program_b.counters().tasks_assigned, 0u);
}

// The same crash -> rehome -> recover arc, but driven by a fault::Injector
// plan instead of hand-scheduled callbacks, and with the client left to
// discover the failure through its own timeout streak (SetStandby). No task
// is lost and §8.3 duplicate suppression keeps the completion count exact.
TEST(FailoverTest, InjectorDrivenFailoverLosesNoTasks) {
  Testbed testbed{TestbedConfig{}};
  sim::Simulator& simulator = testbed.simulator();
  MetricsHub& metrics = *testbed.metrics();

  core::FcfsPolicy policy;
  core::DraconisConfig dc;
  core::DraconisProgram program_a(&policy, dc);
  core::DraconisProgram program_b(&policy, dc);
  p4::SwitchPipeline switch_a(testbed, &program_a, p4::PipelineConfig{});
  p4::SwitchPipeline switch_b(&simulator, &program_b, p4::PipelineConfig{});
  const net::NodeId node_a = switch_a.node_id();
  const net::NodeId node_b = switch_b.AttachNetwork(&testbed.network());

  std::vector<std::unique_ptr<Executor>> executors;
  for (int i = 0; i < 4; ++i) {
    ExecutorConfig config;
    config.request_timeout = FromMicros(500);
    executors.push_back(std::make_unique<Executor>(&testbed, config));
    executors.back()->Start(node_a, 1 + i * 100);
  }
  ClientConfig cc;
  // Generous timeouts (3 ms on the 100 us tasks): queueing on the live
  // standby never looks like a failure, so only the real crash triggers the
  // timeout streak and the client flips exactly once.
  cc.timeout_multiplier = 30.0;
  Client client(&testbed, cc);
  client.SetScheduler(node_a);
  client.SetStandby(node_b);

  fault::FaultPlan plan;
  plan.SchedulerFailover(FromMillis(2) + FromMicros(60));
  fault::InjectorHooks hooks;
  hooks.resolve = [&](const fault::NodeRef& ref) -> std::vector<net::NodeId> {
    if (ref.role == fault::NodeRef::Role::kScheduler) {
      return {node_a};
    }
    return {};
  };
  hooks.on_failover = [&] {
    for (auto& executor : executors) {
      executor->Rehome(node_b);
      metrics.RecordExecutorRehome();
    }
  };
  fault::Injector injector(&testbed, plan, std::move(hooks));
  injector.Arm();

  for (int burst = 0; burst < 10; ++burst) {
    simulator.ScheduleAt(1 + burst * FromMicros(500), [&] {
      client.SubmitJob(std::vector<TaskSpec>(16, TaskSpec{FromMicros(100), 0, 0, 0, 0}));
    });
  }
  simulator.RunUntil(FromSeconds(2));

  // Reconstruction by resubmission: every task completes exactly once.
  EXPECT_EQ(client.completions(), 160u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(metrics.e2e_delay().count(), 160u) << "duplicates must be suppressed";
  EXPECT_GT(metrics.timeout_resubmissions(), 0u);
  EXPECT_GT(program_b.counters().tasks_assigned, 0u);
  EXPECT_TRUE(testbed.network().IsDisconnected(node_a));
  EXPECT_EQ(injector.events_started(), 1u);
  // The stale-timeout guard means the client flips exactly once — never back
  // to the dead switch — and the hub saw both rehome flavours.
  EXPECT_EQ(client.rehomes(), 1u);
  EXPECT_EQ(metrics.client_rehomes(), 1u);
  EXPECT_EQ(metrics.executor_rehomes(), 4u);
}

}  // namespace
}  // namespace draconis::cluster
