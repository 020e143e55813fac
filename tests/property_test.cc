// Property-based tests: random operation interleavings against the switch
// queue and whole-system invariants, swept across parameter grids with
// parameterized gtest.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cluster/experiment.h"
#include "cluster/feeder.h"
#include "common/rng.h"
#include "core/switch_queue.h"
#include "workload/workload.h"

namespace draconis {
namespace {

using core::QueueEntry;
using core::SwitchQueue;

QueueEntry Entry(uint32_t tid) {
  QueueEntry e;
  e.task.id = net::TaskId{9, 9, tid};
  e.valid = true;
  return e;
}

// ---------------------------------------------------------------------------
// Queue fuzz: a random mix of enqueues, dequeues and repairs must never lose
// or duplicate a task, and FCFS order must hold among retrievals.
// ---------------------------------------------------------------------------

struct QueueFuzzParam {
  size_t capacity;
  uint64_t seed;
  bool shadow;
};

class QueueFuzzTest : public ::testing::TestWithParam<QueueFuzzParam> {};

TEST_P(QueueFuzzTest, NoTaskLostOrDuplicated) {
  const QueueFuzzParam param = GetParam();
  SwitchQueue queue("fuzz", param.capacity, nullptr, param.shadow);
  Rng rng(param.seed);

  uint32_t next_tid = 0;
  std::set<uint32_t> accepted;   // enqueued and not yet retrieved
  std::vector<uint32_t> retrieved;
  // Repairs the program would have in flight (kNoRepair = none pending).
  constexpr uint64_t kNoRepair = ~0ull;
  uint64_t pending_add_repair = kNoRepair;
  uint64_t pending_retrieve_repair = kNoRepair;

  for (int op = 0; op < 5000; ++op) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 45) {  // enqueue
      p4::PacketPass pass;
      const uint32_t tid = next_tid++;
      auto res = queue.Enqueue(pass, Entry(tid));
      if (res.added) {
        accepted.insert(tid);
      }
      if (res.need_add_repair) {
        ASSERT_EQ(pending_add_repair, kNoRepair);
        pending_add_repair = res.add_repair_value;
      }
      if (res.need_retrieve_repair) {
        ASSERT_EQ(pending_retrieve_repair, kNoRepair);
        pending_retrieve_repair = res.retrieve_repair_value;
      }
    } else if (dice < 90) {  // dequeue
      p4::PacketPass pass;
      auto res = queue.Dequeue(pass);
      if (res.got_task) {
        const uint32_t tid = res.entry.task.id.tid;
        ASSERT_TRUE(accepted.count(tid)) << "retrieved a task never accepted: " << tid;
        accepted.erase(tid);
        retrieved.push_back(tid);
      }
    } else {  // land any pending repair (repairs are prompt in practice)
      if (pending_add_repair != kNoRepair) {
        p4::PacketPass pass;
        queue.ApplyRepair(pass, net::RepairTarget::kAddPtr, pending_add_repair);
        pending_add_repair = kNoRepair;
      } else if (pending_retrieve_repair != kNoRepair) {
        p4::PacketPass pass;
        queue.ApplyRepair(pass, net::RepairTarget::kRetrievePtr, pending_retrieve_repair);
        pending_retrieve_repair = kNoRepair;
      }
    }
  }

  // Land stragglers and drain: every accepted task must come out exactly once.
  if (pending_add_repair != kNoRepair) {
    p4::PacketPass pass;
    queue.ApplyRepair(pass, net::RepairTarget::kAddPtr, pending_add_repair);
  }
  if (pending_retrieve_repair != kNoRepair) {
    p4::PacketPass pass;
    queue.ApplyRepair(pass, net::RepairTarget::kRetrievePtr, pending_retrieve_repair);
  }
  for (size_t i = 0; i < param.capacity + 8 && !accepted.empty(); ++i) {
    p4::PacketPass pass;
    auto res = queue.Dequeue(pass);
    if (res.got_task) {
      const uint32_t tid = res.entry.task.id.tid;
      ASSERT_TRUE(accepted.count(tid));
      accepted.erase(tid);
      retrieved.push_back(tid);
    }
  }
  EXPECT_TRUE(accepted.empty()) << accepted.size() << " tasks lost in the queue";

  // FCFS: retrieval order must be increasing (tids are assigned in
  // submission order and every accepted task is retrieved exactly once).
  for (size_t i = 1; i < retrieved.size(); ++i) {
    ASSERT_LT(retrieved[i - 1], retrieved[i]) << "FCFS order violated at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QueueFuzzTest,
    ::testing::Values(QueueFuzzParam{2, 1, true}, QueueFuzzParam{2, 2, false},
                      QueueFuzzParam{3, 3, true}, QueueFuzzParam{3, 4, false},
                      QueueFuzzParam{8, 5, true}, QueueFuzzParam{8, 6, false},
                      QueueFuzzParam{64, 7, true}, QueueFuzzParam{64, 8, false},
                      QueueFuzzParam{7, 9, true}, QueueFuzzParam{7, 10, false}),
    [](const ::testing::TestParamInfo<QueueFuzzParam>& fuzz_info) {
      return "cap" + std::to_string(fuzz_info.param.capacity) + "_seed" +
             std::to_string(fuzz_info.param.seed) + (fuzz_info.param.shadow ? "_shadow" : "_textbook");
    });

// ---------------------------------------------------------------------------
// Queue + swap fuzz: interleave swaps with traffic; tasks must be conserved
// (each ends up either retrieved once or still stored once).
// ---------------------------------------------------------------------------

class SwapFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SwapFuzzTest, SwapsConserveTasks) {
  SwitchQueue queue("swapfuzz", 16);
  Rng rng(GetParam());

  uint32_t next_tid = 0;
  std::multiset<uint32_t> live;  // in queue or carried by the "walk"
  std::vector<uint32_t> retrieved;
  std::optional<QueueEntry> carried;
  uint64_t carried_rptr = 0;
  uint64_t carried_indx = 0;

  // Enqueue with prompt repairs (the pipeline lands them within a pass or
  // two; here they land immediately).
  const auto enqueue = [&](const QueueEntry& entry) {
    p4::PacketPass pass;
    auto res = queue.Enqueue(pass, entry);
    if (res.need_add_repair) {
      p4::PacketPass repair;
      queue.ApplyRepair(repair, net::RepairTarget::kAddPtr, res.add_repair_value);
    }
    if (res.need_retrieve_repair) {
      p4::PacketPass repair;
      queue.ApplyRepair(repair, net::RepairTarget::kRetrievePtr, res.retrieve_repair_value);
    }
    return res.added;
  };

  for (int op = 0; op < 4000; ++op) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 30) {
      const uint32_t tid = next_tid++;
      if (enqueue(Entry(tid))) {
        live.insert(tid);
      }
    } else if (dice < 60) {
      p4::PacketPass pass;
      auto res = queue.Dequeue(pass);
      if (res.got_task) {
        // Half the time, start a swap walk with the dequeued task.
        if (carried == std::nullopt && rng.NextBool(0.5)) {
          carried = res.entry;
          carried_rptr = res.slot + 1;
          carried_indx = res.slot + 1;
        } else {
          live.erase(live.find(res.entry.task.id.tid));
          retrieved.push_back(res.entry.task.id.tid);
        }
      }
    } else if (carried.has_value()) {
      p4::PacketPass pass;
      auto res = queue.SwapAt(pass, carried_rptr, carried_indx, *carried);
      if (res.past_end) {
        // Re-enqueue the carried task like the program does.
        if (enqueue(*carried)) {
          carried.reset();
        }
      } else if (res.swapped) {
        carried = res.previous;
        carried_indx = res.slot + 1;
        carried_rptr = res.head;
      } else {
        carried.reset();  // absorbed into the queue
      }
    }
  }

  // Finish any walk, then drain.
  if (carried.has_value()) {
    ASSERT_TRUE(enqueue(*carried)) << "could not re-enqueue carried task";
    carried.reset();
  }
  for (int i = 0; i < 64 && !live.empty(); ++i) {
    p4::PacketPass pass;
    auto res = queue.Dequeue(pass);
    if (res.got_task) {
      const uint32_t tid = res.entry.task.id.tid;
      ASSERT_TRUE(live.count(tid)) << "duplicated or phantom task " << tid;
      live.erase(live.find(tid));
      retrieved.push_back(tid);
    }
  }
  EXPECT_TRUE(live.empty()) << live.size() << " tasks lost across swaps";

  // No duplicates among retrievals.
  std::set<uint32_t> unique(retrieved.begin(), retrieved.end());
  EXPECT_EQ(unique.size(), retrieved.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwapFuzzTest, ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// End-to-end conservation: for every scheduler kind and a grid of loads, all
// submitted tasks complete when the system runs to completion.
// ---------------------------------------------------------------------------

struct ConservationParam {
  cluster::SchedulerKind kind;
  double utilization;
};

class ConservationTest : public ::testing::TestWithParam<ConservationParam> {};

TEST_P(ConservationTest, EveryTaskCompletesExactlyOnce) {
  const ConservationParam param = GetParam();
  cluster::ExperimentConfig config;
  config.scheduler = param.kind;
  config.num_workers = 4;
  config.executors_per_worker = 4;
  config.num_clients = 2;
  config.warmup = 1;
  config.horizon = FromSeconds(3);
  config.run_to_completion = true;
  config.max_tasks_per_packet = 1;

  config.workload.arrival = workload::ArrivalKind::kOpenLoop;
  config.workload.tasks_per_second = param.utilization * 16 / 100e-6;
  config.workload.duration = FromMillis(20);
  config.workload.service = workload::ServiceTime::Fixed(FromMicros(100));
  config.workload.seed = 1234;

  cluster::ExperimentResult result = cluster::RunExperiment(config);
  EXPECT_GE(result.drain_time, 0) << "cluster did not drain";
  EXPECT_EQ(result.metrics->tasks_completed(), result.metrics->tasks_submitted());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConservationTest,
    ::testing::Values(
        ConservationParam{cluster::SchedulerKind::kDraconis, 0.3},
        ConservationParam{cluster::SchedulerKind::kDraconis, 0.8},
        ConservationParam{cluster::SchedulerKind::kDraconisDpdkServer, 0.5},
        ConservationParam{cluster::SchedulerKind::kDraconisSocketServer, 0.3},
        ConservationParam{cluster::SchedulerKind::kR2P2, 0.3},
        ConservationParam{cluster::SchedulerKind::kR2P2, 0.7},
        ConservationParam{cluster::SchedulerKind::kRackSched, 0.5},
        ConservationParam{cluster::SchedulerKind::kSparrow, 0.5}),
    [](const ::testing::TestParamInfo<ConservationParam>& cons_info) {
      std::string name = cluster::SchedulerKindName(cons_info.param.kind);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + "_u" + std::to_string(static_cast<int>(cons_info.param.utilization * 100));
    });

// ---------------------------------------------------------------------------
// Register discipline sweep: every policy's full packet flow stays within the
// one-access-per-register budget (the p4 layer throws otherwise). Running a
// busy mixed workload through each policy is a property check by itself.
// ---------------------------------------------------------------------------

class PolicyDisciplineTest : public ::testing::TestWithParam<cluster::PolicyKind> {};

TEST_P(PolicyDisciplineTest, NoRegisterViolationsUnderLoad) {
  cluster::ExperimentConfig config;
  config.scheduler = cluster::SchedulerKind::kDraconis;
  config.policy = GetParam();
  config.num_workers = 6;
  config.executors_per_worker = 4;
  config.num_racks = 3;
  config.num_clients = 2;
  config.warmup = FromMillis(2);
  config.horizon = FromMillis(30);
  config.max_tasks_per_packet = 1;
  config.priority_levels = 4;
  config.worker_resources = {0b1, 0b1, 0b11, 0b11, 0b111, 0b111};
  config.locality_access_model = config.policy == cluster::PolicyKind::kLocality;
  config.timeout_multiplier = 10.0;

  workload::WorkloadSpec spec;
  spec.arrival = workload::ArrivalKind::kOpenLoop;
  spec.tasks_per_second = 0.7 * 24 / 100e-6;
  spec.duration = FromMillis(30);
  spec.service = workload::ServiceTime::Fixed(FromMicros(100));
  spec.seed = 5;
  if (config.policy == cluster::PolicyKind::kPriority) {
    spec.taggers.push_back(workload::TaggerStage::Priority({1, 2, 3, 4}, 6));
  } else if (config.policy == cluster::PolicyKind::kLocality) {
    spec.taggers.push_back(workload::TaggerStage::Locality(6, 7));
  }
  workload::JobStream stream = spec.Generate();
  if (config.policy == cluster::PolicyKind::kResource) {
    for (auto& job : stream) {
      for (auto& task : job.tasks) {
        task.tprops = 1u << (task.fn_id % 3);
      }
    }
  }

  // A register-discipline violation throws CheckFailure out of RunExperiment.
  cluster::Feeder feeder(&stream);
  EXPECT_NO_THROW({
    cluster::ExperimentResult result = cluster::RunExperiment(config, feeder);
    EXPECT_GT(result.metrics->tasks_completed(), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyDisciplineTest,
                         ::testing::Values(cluster::PolicyKind::kFcfs,
                                           cluster::PolicyKind::kPriority,
                                           cluster::PolicyKind::kResource,
                                           cluster::PolicyKind::kLocality),
                         [](const ::testing::TestParamInfo<cluster::PolicyKind>& pol_info) {
                           switch (pol_info.param) {
                             case cluster::PolicyKind::kFcfs:
                               return std::string("Fcfs");
                             case cluster::PolicyKind::kPriority:
                               return std::string("Priority");
                             case cluster::PolicyKind::kResource:
                               return std::string("Resource");
                             case cluster::PolicyKind::kLocality:
                               return std::string("Locality");
                           }
                           return std::string("Unknown");
                         });

}  // namespace
}  // namespace draconis
