#include <gtest/gtest.h>

#include "common/check.h"
#include "core/policy.h"

namespace draconis::core {
namespace {

QueueEntry Entry(uint32_t tprops, uint32_t skip = 0) {
  QueueEntry e;
  e.task.id = net::TaskId{1, 1, 0};
  e.task.tprops = tprops;
  e.skip_counter = skip;
  e.valid = true;
  return e;
}

// --- FCFS -------------------------------------------------------------------

TEST(FcfsPolicyTest, SingleQueueAssignsEverything) {
  FcfsPolicy policy;
  EXPECT_EQ(policy.num_queues(), 1u);
  EXPECT_EQ(policy.max_swaps(), 0u);
  QueueEntry e = Entry(1234);
  EXPECT_TRUE(policy.ShouldAssign(e, 0));
  EXPECT_EQ(e.skip_counter, 0u);
}

// --- Priority ---------------------------------------------------------------

TEST(PriorityPolicyTest, QueuePerLevel) {
  PriorityPolicy policy(4);
  EXPECT_EQ(policy.num_queues(), 4u);
  EXPECT_EQ(policy.QueueForTask(Entry(1).task), 0u);
  EXPECT_EQ(policy.QueueForTask(Entry(4).task), 3u);
}

TEST(PriorityPolicyTest, ClampsMalformedLevels) {
  PriorityPolicy policy(4);
  EXPECT_EQ(policy.QueueForTask(Entry(0).task), 0u);    // below range
  EXPECT_EQ(policy.QueueForTask(Entry(99).task), 3u);   // above range
}

TEST(PriorityPolicyTest, AlwaysAssigns) {
  PriorityPolicy policy(4);
  QueueEntry e = Entry(2);
  EXPECT_TRUE(policy.ShouldAssign(e, 0));
}

TEST(PriorityPolicyTest, NeedsAtLeastOneLevel) {
  EXPECT_THROW(PriorityPolicy(0), draconis::CheckFailure);
}

// --- Resource ---------------------------------------------------------------

TEST(ResourcePolicyTest, SubsetMatch) {
  ResourcePolicy policy;
  QueueEntry needs_ab = Entry(0b011);
  EXPECT_TRUE(policy.ShouldAssign(needs_ab, 0b111));   // superset ok
  EXPECT_TRUE(policy.ShouldAssign(needs_ab, 0b011));   // exact ok
  EXPECT_FALSE(policy.ShouldAssign(needs_ab, 0b001));  // missing B
  EXPECT_FALSE(policy.ShouldAssign(needs_ab, 0b100));  // disjoint
}

TEST(ResourcePolicyTest, NoRequirementsRunAnywhere) {
  ResourcePolicy policy;
  QueueEntry plain = Entry(0);
  EXPECT_TRUE(policy.ShouldAssign(plain, 0));
}

TEST(ResourcePolicyTest, SkipCounterGrowsOnMismatchOnly) {
  ResourcePolicy policy;
  QueueEntry e = Entry(0b100);
  policy.ShouldAssign(e, 0b001);
  policy.ShouldAssign(e, 0b010);
  EXPECT_EQ(e.skip_counter, 2u);
  policy.ShouldAssign(e, 0b100);
  EXPECT_EQ(e.skip_counter, 2u);  // match does not bump the counter
}

TEST(ResourcePolicyTest, SwapBoundConfigurable) {
  ResourcePolicy policy(5);
  EXPECT_EQ(policy.max_swaps(), 5u);
}

// --- Locality ---------------------------------------------------------------

class LocalityPolicyTest : public ::testing::Test {
 protected:
  // Six workers round-robin over three racks: rack r holds nodes r and r + 3.
  LocalityPolicyTest() : policy(6, 3, {3, 9}) {}
  LocalityPolicy policy;
};

TEST_F(LocalityPolicyTest, DataLocalAssignsImmediately) {
  QueueEntry e = Entry(/*data node=*/2);
  EXPECT_TRUE(policy.ShouldAssign(e, /*exec node=*/2));
  EXPECT_EQ(e.skip_counter, 0u);
  EXPECT_EQ(e.task.meta.placement, net::TaskInfo::Placement::kLocal);
}

TEST_F(LocalityPolicyTest, NodeOnlyPhaseRejectsEveryoneElse) {
  QueueEntry e = Entry(2);
  // Skips 1..3 stay node-local; even a same-rack executor (node 5, rack 2)
  // is rejected.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(policy.ShouldAssign(e, 5));
  }
  EXPECT_EQ(e.skip_counter, 3u);
}

TEST_F(LocalityPolicyTest, RackPhaseAcceptsSameRack) {
  QueueEntry e = Entry(2, /*skip=*/3);  // past the node-only phase
  EXPECT_TRUE(policy.ShouldAssign(e, 5));  // node 5 shares rack 2
  EXPECT_EQ(e.task.meta.placement, net::TaskInfo::Placement::kSameRack);
}

TEST_F(LocalityPolicyTest, RackPhaseRejectsOtherRacks) {
  QueueEntry e = Entry(2, /*skip=*/3);
  EXPECT_FALSE(policy.ShouldAssign(e, 1));  // node 1 is rack 1
  EXPECT_EQ(e.skip_counter, 4u);
}

TEST_F(LocalityPolicyTest, GlobalPhaseAcceptsAnyone) {
  QueueEntry e = Entry(2, /*skip=*/9);  // past the global limit after ++
  EXPECT_TRUE(policy.ShouldAssign(e, 1));
  EXPECT_EQ(e.task.meta.placement, net::TaskInfo::Placement::kRemote);
}

TEST_F(LocalityPolicyTest, EscalationLadderEndsWithinGlobalLimit) {
  // A task repeatedly offered to a wrong-rack executor is released after
  // global_start_limit examinations.
  QueueEntry e = Entry(2);
  int examinations = 0;
  while (!policy.ShouldAssign(e, 1)) {
    ++examinations;
    ASSERT_LT(examinations, 20);
  }
  EXPECT_EQ(examinations, 9);
}

TEST_F(LocalityPolicyTest, DataLocalAlwaysWinsEvenLate) {
  QueueEntry e = Entry(2, /*skip=*/7);
  EXPECT_TRUE(policy.ShouldAssign(e, 2));
  EXPECT_EQ(e.task.meta.placement, net::TaskInfo::Placement::kLocal);
}

TEST_F(LocalityPolicyTest, InvalidLimitsRejected) {
  EXPECT_THROW(LocalityPolicy(6, 3, {9, 3}), draconis::CheckFailure);
  EXPECT_THROW(LocalityPolicy(6, 0, {3, 9}), draconis::CheckFailure);
}

TEST(ClassifyPlacementTest, AllThreeClasses) {
  EXPECT_EQ(ClassifyPlacement(6, 3, 2, 2), net::TaskInfo::Placement::kLocal);
  EXPECT_EQ(ClassifyPlacement(6, 3, 2, 5), net::TaskInfo::Placement::kSameRack);
  EXPECT_EQ(ClassifyPlacement(6, 3, 2, 1), net::TaskInfo::Placement::kRemote);
}

// Workers spread round-robin over the racks: node n sits in rack n % racks.
TEST(ClassifyPlacementTest, RacksAreRoundRobin) {
  constexpr auto kSameRack = net::TaskInfo::Placement::kSameRack;
  constexpr auto kRemote = net::TaskInfo::Placement::kRemote;
  EXPECT_EQ(ClassifyPlacement(9, 3, 0, 3), kSameRack);
  EXPECT_EQ(ClassifyPlacement(9, 3, 0, 6), kSameRack);
  EXPECT_EQ(ClassifyPlacement(9, 3, 8, 2), kSameRack);
  EXPECT_EQ(ClassifyPlacement(9, 3, 4, 7), kSameRack);
  EXPECT_EQ(ClassifyPlacement(9, 3, 0, 1), kRemote);
  EXPECT_EQ(ClassifyPlacement(9, 3, 4, 8), kRemote);
}

// TPROPS can come from a trace file, so a data node outside the cluster is
// an error rather than a silent rack.
TEST(ClassifyPlacementTest, OutOfRangeDataNodeThrows) {
  EXPECT_THROW(ClassifyPlacement(4, 2, /*data_node=*/4, /*exec_node=*/0), draconis::CheckFailure);
  EXPECT_EQ(ClassifyPlacement(4, 2, 3, 1), net::TaskInfo::Placement::kSameRack);
}

}  // namespace
}  // namespace draconis::core
