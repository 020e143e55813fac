#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"

namespace draconis::net {
namespace {

class Recorder : public Endpoint {
 public:
  void HandlePacket(Packet pkt) override { received.push_back(std::move(pkt)); }
  std::vector<Packet> received;
};

struct Fixture {
  Fixture() : network(&simulator, Config()) {}

  static NetworkConfig Config() {
    NetworkConfig c;
    c.propagation = 1000;
    c.ns_per_byte = 0.0;
    c.max_jitter = 0;  // deterministic timing for the assertions below
    return c;
  }

  sim::Simulator simulator;
  net::Network network;
};

TEST(PacketTest, WireSizeScalesWithTasks) {
  Packet p;
  p.op = OpCode::kJobSubmission;
  const size_t base = p.WireSize();
  p.tasks.resize(3);
  EXPECT_EQ(p.WireSize(), base + 3 * TaskInfo::kWireSize);
}

TEST(PacketTest, MaxTasksPerPacketFitsMtu) {
  const size_t n = MaxTasksPerPacket();
  EXPECT_GT(n, 0u);
  Packet p;
  p.tasks.resize(n);
  EXPECT_LE(p.WireSize(), kMtuBytes);
  p.tasks.resize(n + 1);
  EXPECT_GT(p.WireSize(), kMtuBytes);
}

TEST(PacketTest, TaskIdEqualityAndHash) {
  TaskId a{1, 2, 3};
  TaskId b{1, 2, 3};
  TaskId c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  TaskIdHash hash;
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

TEST(PacketTest, OpCodeNamesAreDistinctive) {
  EXPECT_STREQ(OpCodeName(OpCode::kJobSubmission), "job_submission");
  EXPECT_STREQ(OpCodeName(OpCode::kTaskRequest), "task_request");
  EXPECT_STREQ(OpCodeName(OpCode::kRepair), "repair");
}

TEST(PacketTest, DescribeMentionsOpcode) {
  Packet p;
  p.op = OpCode::kSwapTask;
  EXPECT_NE(p.Describe().find("swap_task"), std::string::npos);
}

TEST(PacketPoolTest, TakeReturnsTheParkedPacketAndFreesItsSlot) {
  PacketPool pool;
  Packet a;
  a.op = OpCode::kTaskAssignment;
  a.tasks.resize(2);
  Packet b;
  b.op = OpCode::kNoOpTask;
  const uint32_t slot_a = pool.Park(std::move(a));
  const uint32_t slot_b = pool.Park(std::move(b));
  EXPECT_NE(slot_a, slot_b);
  EXPECT_EQ(pool.Peek(slot_a).tasks.size(), 2u);

  const Packet taken = pool.Take(slot_a);
  EXPECT_EQ(taken.op, OpCode::kTaskAssignment);
  EXPECT_EQ(taken.tasks.size(), 2u);
  // The freed slot is reused before the pool grows.
  Packet c;
  c.op = OpCode::kJobAck;
  EXPECT_EQ(pool.Park(std::move(c)), slot_a);
  EXPECT_EQ(pool.Take(slot_a).op, OpCode::kJobAck);
  EXPECT_EQ(pool.Take(slot_b).op, OpCode::kNoOpTask);
}

TEST(NetworkTest, DeliversPacketToDestination) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());

  Packet p;
  p.op = OpCode::kOther;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].src, ida);
  EXPECT_TRUE(a.received.empty());
}

// The multi-ToR shape: every marked switch is one hop from every node, and
// node-to-node traffic pays two hops however many switches exist.
TEST(NetworkTest, NodeToNodeCostsTwoHopsWithoutSwitchInvolvement) {
  Fixture f;
  Recorder a;
  Recorder b;
  Recorder sw;
  Recorder sw2;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  const NodeId ids = f.network.Register(&sw, HostProfile::Wire());
  const NodeId ids2 = f.network.Register(&sw2, HostProfile::Wire());
  f.network.MarkSwitch(ids);
  f.network.MarkSwitch(ids2);

  Packet p1;
  p1.dst = idb;
  f.network.Send(ida, std::move(p1));  // node -> node: 2 hops
  Packet p2;
  p2.dst = ids;
  f.network.Send(ida, std::move(p2));  // node -> switch: 1 hop
  Packet p3;
  p3.dst = ids2;
  f.network.Send(idb, std::move(p3));  // node -> second switch: 1 hop
  Packet p4;
  p4.dst = ida;
  f.network.Send(ids2, std::move(p4));  // second switch -> node: 1 hop

  f.simulator.RunUntil(1000);
  EXPECT_EQ(sw.received.size(), 1u);
  EXPECT_EQ(sw2.received.size(), 1u);
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_TRUE(b.received.empty());
  f.simulator.RunUntil(2000);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, HostRxCostSerializesDeliveries) {
  Fixture f;
  Recorder src;
  Recorder busy;
  const NodeId ids = f.network.Register(&src, HostProfile::Wire());
  const NodeId idb = f.network.Register(&busy, HostProfile{0, 1000, 0});

  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.dst = idb;
    f.network.Send(ids, std::move(p));
  }
  // All arrive at the NIC at t=2000 (two hops, no switch registered), then
  // the single rx core spaces them 1000 ns apart.
  f.simulator.RunUntil(3000);
  EXPECT_EQ(busy.received.size(), 1u);
  f.simulator.RunUntil(4000);
  EXPECT_EQ(busy.received.size(), 2u);
  f.simulator.RunUntil(5000);
  EXPECT_EQ(busy.received.size(), 3u);
}

TEST(NetworkTest, StackLatencyAddsDelayWithoutOccupancy) {
  Fixture f;
  Recorder src;
  Recorder sock;
  const NodeId ids = f.network.Register(&src, HostProfile::Wire());
  const NodeId idk = f.network.Register(&sock, HostProfile{0, 0, 5000});

  Packet p;
  p.dst = idk;
  f.network.Send(ids, std::move(p));
  f.simulator.RunUntil(6000);
  EXPECT_TRUE(sock.received.empty());
  f.simulator.RunUntil(7000);
  EXPECT_EQ(sock.received.size(), 1u);
}

TEST(NetworkTest, TxCostSerializesSends) {
  Fixture f;
  Recorder slow_tx;
  Recorder sink;
  const NodeId idt = f.network.Register(&slow_tx, HostProfile{2000, 0, 0});
  const NodeId idr = f.network.Register(&sink, HostProfile::Wire());

  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.dst = idr;
    f.network.Send(idt, std::move(p));
  }
  // First departs at 2000, arrives 4000; second departs 4000, arrives 6000.
  f.simulator.RunUntil(4500);
  EXPECT_EQ(sink.received.size(), 1u);
  f.simulator.RunUntil(6500);
  EXPECT_EQ(sink.received.size(), 2u);
}

TEST(NetworkTest, SerializationDelayScalesWithSize) {
  sim::Simulator simulator;
  NetworkConfig cfg;
  cfg.propagation = 0;
  cfg.ns_per_byte = 10.0;
  cfg.max_jitter = 0;
  Network network(&simulator, cfg);
  Recorder a;
  Recorder b;
  const NodeId ida = network.Register(&a, HostProfile::Wire());
  const NodeId idb = network.Register(&b, HostProfile::Wire());
  network.MarkSwitch(idb);

  Packet p;
  p.dst = idb;
  p.tasks.resize(10);  // bigger packet
  const auto wire = static_cast<TimeNs>(10.0 * p.WireSize());
  network.Send(ida, std::move(p));
  simulator.RunUntil(wire - 1);
  EXPECT_TRUE(b.received.empty());
  simulator.RunUntil(wire + 1);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, InjectDropLosesPackets) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.InjectDrop(ida, idb, 1.0);

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.network.packets_dropped(), 1u);
}

TEST(NetworkTest, DropRuleIsDirectional) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.InjectDrop(ida, idb, 1.0);

  Packet p;
  p.dst = ida;
  f.network.Send(idb, std::move(p));  // reverse direction unaffected
  f.simulator.RunAll();
  EXPECT_EQ(a.received.size(), 1u);
}

TEST(NetworkTest, ClearDropRulesRestoresDelivery) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.InjectDrop(ida, idb, 1.0);
  f.network.ClearDropRules();

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, DisconnectDropsBothDirections) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.Disconnect(idb);
  EXPECT_TRUE(f.network.IsDisconnected(idb));

  Packet to_dead;
  to_dead.dst = idb;
  f.network.Send(ida, std::move(to_dead));
  Packet from_dead;
  from_dead.dst = ida;
  f.network.Send(idb, std::move(from_dead));
  f.simulator.RunAll();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.network.packets_dropped(), 2u);
}

TEST(NetworkTest, ReconnectRestoresDelivery) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.Disconnect(idb);
  f.network.Reconnect(idb);
  EXPECT_FALSE(f.network.IsDisconnected(idb));

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, RemoveDropRestoresDelivery) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  f.network.InjectDrop(ida, idb, 1.0);
  f.network.RemoveDrop(ida, idb);

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));
  f.simulator.RunAll();
  EXPECT_EQ(b.received.size(), 1u);
}

// Delivery times with jitter enabled must be bit-identical with and without a
// p=0 drop rule installed: the rule's probability draws come from the
// dedicated fault stream, not the jitter stream.
TEST(NetworkTest, ZeroProbabilityDropRuleDoesNotPerturbJitter) {
  class TimedRecorder : public Endpoint {
   public:
    explicit TimedRecorder(sim::Simulator* simulator) : simulator_(simulator) {}
    void HandlePacket(Packet) override { times.push_back(simulator_->Now()); }
    std::vector<TimeNs> times;

   private:
    sim::Simulator* simulator_;
  };

  NetworkConfig cfg;
  cfg.max_jitter = 500;  // jitter stream active
  cfg.seed = 7;

  std::vector<TimeNs> baseline;
  for (const bool with_rule : {false, true}) {
    sim::Simulator simulator;
    Network network(&simulator, cfg);
    TimedRecorder a(&simulator);
    TimedRecorder b(&simulator);
    const NodeId ida = network.Register(&a, HostProfile::Wire());
    const NodeId idb = network.Register(&b, HostProfile::Wire());
    if (with_rule) {
      network.InjectDrop(ida, idb, 0.0);
    }
    for (int i = 0; i < 32; ++i) {
      Packet p;
      p.dst = idb;
      network.Send(ida, std::move(p));
    }
    simulator.RunAll();
    ASSERT_EQ(b.times.size(), 32u);
    if (!with_rule) {
      baseline = b.times;
    } else {
      EXPECT_EQ(b.times, baseline);
    }
  }
}

// §3.3: a hard node failure also loses packets already in flight toward the
// node — disconnection is re-checked at delivery time.
TEST(NetworkTest, DisconnectDropsInFlightPackets) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());

  Packet p;
  p.dst = idb;
  f.network.Send(ida, std::move(p));  // arrives at t=2000 (two hops)
  f.simulator.ScheduleAt(1000, [&] { f.network.Disconnect(idb); });
  f.simulator.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.network.packets_dropped(), 1u);
  EXPECT_EQ(f.network.packets_delivered(), 0u);
}

TEST(NetworkTest, LatencyPenaltyStacksAndUndoes) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());

  f.network.AddLatencyPenalty(5000);
  Packet slow;
  slow.dst = idb;
  f.network.Send(ida, std::move(slow));  // 2000 ns base + 5000 penalty
  f.simulator.RunUntil(6999);
  EXPECT_TRUE(b.received.empty());
  f.simulator.RunUntil(7001);
  EXPECT_EQ(b.received.size(), 1u);

  f.network.AddLatencyPenalty(-5000);
  EXPECT_EQ(f.network.latency_penalty(), 0);
  Packet fast;
  fast.dst = idb;
  f.network.Send(ida, std::move(fast));
  f.simulator.RunAll();
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(PacketTest, PayloadBytesCountTowardWireSize) {
  Packet p;
  p.op = OpCode::kParamData;
  const size_t base = p.WireSize();
  p.payload_bytes = 4096;
  EXPECT_EQ(p.WireSize(), base + 4096);
}

TEST(NetworkTest, CountsDeliveredPackets) {
  Fixture f;
  Recorder a;
  Recorder b;
  const NodeId ida = f.network.Register(&a, HostProfile::Wire());
  const NodeId idb = f.network.Register(&b, HostProfile::Wire());
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.dst = idb;
    f.network.Send(ida, std::move(p));
  }
  f.simulator.RunAll();
  EXPECT_EQ(f.network.packets_delivered(), 5u);
}

}  // namespace
}  // namespace draconis::net
