#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.h"
#include "net/network.h"
#include "p4/pipeline.h"
#include "p4/register.h"
#include "sim/simulator.h"

namespace draconis::p4 {
namespace {

// ---------------------------------------------------------------------------
// RegisterArray: the single-access rule and the stateful-ALU operations.
// ---------------------------------------------------------------------------

TEST(RegisterTest, ReadReturnsInitialValue) {
  RegisterArray<uint32_t> reg("r", 4, 7);
  PacketPass pass;
  EXPECT_EQ(reg.Read(pass, 2), 7u);
}

TEST(RegisterTest, WriteThenControlPlaneRead) {
  RegisterArray<uint32_t> reg("r", 4);
  PacketPass pass;
  reg.Write(pass, 1, 99);
  EXPECT_EQ(reg.ControlPlaneRead(1), 99u);
}

TEST(RegisterTest, SecondAccessInSamePassThrows) {
  RegisterArray<uint32_t> reg("r", 4);
  PacketPass pass;
  reg.Read(pass, 0);
  EXPECT_THROW(reg.Read(pass, 0), draconis::CheckFailure);
}

TEST(RegisterTest, SecondAccessEvenAtDifferentIndexThrows) {
  // Hardware indexes a register array once per packet, period.
  RegisterArray<uint32_t> reg("r", 4);
  PacketPass pass;
  reg.Read(pass, 0);
  EXPECT_THROW(reg.Write(pass, 3, 1), draconis::CheckFailure);
}

TEST(RegisterTest, TheNaiveCheckThenIncrementQueueIsImpossible) {
  // The textbook enqueue — read the pointer to check fullness, then bump
  // it — is exactly what the hardware forbids. This is the constraint that
  // motivates the paper's delayed-pointer-correction design.
  RegisterArray<uint64_t> add_ptr("add_ptr", 1, 0);
  PacketPass pass;
  const uint64_t head = add_ptr.Read(pass, 0);
  EXPECT_THROW(add_ptr.Write(pass, 0, head + 1), draconis::CheckFailure);
}

TEST(RegisterTest, DifferentArraysAreIndependent) {
  RegisterArray<uint32_t> a("a", 1);
  RegisterArray<uint32_t> b("b", 1);
  PacketPass pass;
  a.Read(pass, 0);
  EXPECT_NO_THROW(b.Read(pass, 0));
}

TEST(RegisterTest, SingleAccessRuleHoldsPastTheInlineAccessSet) {
  // The first kInlineAccesses accesses are tracked inline, later ones in a
  // spill vector; a repeat is caught on either side of the boundary.
  std::vector<std::unique_ptr<RegisterArray<uint32_t>>> regs;
  for (size_t i = 0; i < PacketPass::kInlineAccesses + 4; ++i) {
    regs.push_back(std::make_unique<RegisterArray<uint32_t>>("r", 1));
  }
  PacketPass pass;
  for (const auto& reg : regs) {
    reg->Read(pass, 0);
  }
  EXPECT_EQ(pass.accesses(), regs.size());
  EXPECT_THROW(regs.front()->Read(pass, 0), draconis::CheckFailure);
  EXPECT_THROW(regs[PacketPass::kInlineAccesses - 1]->Read(pass, 0), draconis::CheckFailure);
  EXPECT_THROW(regs[PacketPass::kInlineAccesses]->Read(pass, 0), draconis::CheckFailure);
  EXPECT_THROW(regs.back()->Read(pass, 0), draconis::CheckFailure);
  EXPECT_EQ(pass.accesses(), regs.size());
}

TEST(RegisterTest, FreshPassResetsBudget) {
  RegisterArray<uint32_t> reg("r", 1);
  PacketPass pass1;
  reg.ReadAndAdd(pass1, 0, 1);
  PacketPass pass2;  // recirculation: new traversal, new budget
  EXPECT_EQ(reg.ReadAndAdd(pass2, 0, 1), 1u);
}

TEST(RegisterTest, ReadAndAddReturnsOldValue) {
  RegisterArray<uint64_t> reg("r", 1, 10);
  PacketPass pass;
  EXPECT_EQ(reg.ReadAndAdd(pass, 0, 5), 10u);
  EXPECT_EQ(reg.ControlPlaneRead(0), 15u);
}

TEST(RegisterTest, ExchangeSwapsValue) {
  RegisterArray<int> reg("r", 1, 42);
  PacketPass pass;
  EXPECT_EQ(reg.Exchange(pass, 0, 7), 42);
  EXPECT_EQ(reg.ControlPlaneRead(0), 7);
}

TEST(RegisterTest, ConditionalExchangeWritesOnlyWhenTrue) {
  RegisterArray<int> reg("r", 1, 1);
  {
    PacketPass pass;
    EXPECT_EQ(reg.ConditionalExchange(pass, 0, false, 9), 1);
    EXPECT_EQ(reg.ControlPlaneRead(0), 1);
  }
  {
    PacketPass pass;
    EXPECT_EQ(reg.ConditionalExchange(pass, 0, true, 9), 1);
    EXPECT_EQ(reg.ControlPlaneRead(0), 9);
  }
}

TEST(RegisterTest, ConditionalExchangeStillConsumesAccess) {
  RegisterArray<int> reg("r", 1);
  PacketPass pass;
  reg.ConditionalExchange(pass, 0, false, 9);
  EXPECT_THROW(reg.Read(pass, 0), draconis::CheckFailure);
}

TEST(RegisterTest, AddIfAtMostClaims) {
  RegisterArray<uint32_t> reg("r", 1, 0);
  PacketPass p1;
  auto [old1, ok1] = reg.AddIfAtMost(p1, 0, 0, 1);
  EXPECT_EQ(old1, 0u);
  EXPECT_TRUE(ok1);
  PacketPass p2;
  auto [old2, ok2] = reg.AddIfAtMost(p2, 0, 0, 1);
  EXPECT_EQ(old2, 1u);
  EXPECT_FALSE(ok2);
  EXPECT_EQ(reg.ControlPlaneRead(0), 1u);
}

TEST(RegisterTest, OutOfRangeIndexThrows) {
  RegisterArray<uint32_t> reg("r", 2);
  PacketPass pass;
  EXPECT_THROW(reg.Read(pass, 2), draconis::CheckFailure);
}

TEST(RegisterTest, UnwrittenElementsReadTheirInitialValueAtEveryIndex) {
  // Storage grows only up to the highest index written; every operation
  // must still see `initial` below, at and above that index.
  RegisterArray<uint32_t> reg("r", 1000, 7);
  {
    PacketPass pass;
    reg.Write(pass, 600, 1);
  }
  EXPECT_EQ(reg.ControlPlaneRead(0), 7u);
  EXPECT_EQ(reg.ControlPlaneRead(599), 7u);
  EXPECT_EQ(reg.ControlPlaneRead(600), 1u);
  EXPECT_EQ(reg.ControlPlaneRead(601), 7u);
  EXPECT_EQ(reg.ControlPlaneRead(999), 7u);
  EXPECT_THROW(reg.ControlPlaneRead(1000), draconis::CheckFailure);
  {
    PacketPass pass;
    EXPECT_EQ(reg.Read(pass, 999), 7u);
  }
  {
    PacketPass pass;
    EXPECT_EQ(reg.ConditionalExchange(pass, 900, false, 3), 7u);
  }
  {
    PacketPass pass;
    auto [old, applied] = reg.AddIfAtMost(pass, 800, 6, 1);
    EXPECT_EQ(old, 7u);
    EXPECT_FALSE(applied);
  }
  {
    PacketPass pass;
    EXPECT_EQ(reg.ReadAndAdd(pass, 700, 2), 7u);
  }
  {
    PacketPass pass;
    EXPECT_EQ(reg.Update(pass, 998, [](uint32_t v) { return v * 10; }), 7u);
  }
  {
    PacketPass pass;
    EXPECT_EQ(reg.Exchange(pass, 999, 5), 7u);
  }
  EXPECT_EQ(reg.ControlPlaneRead(700), 9u);
  EXPECT_EQ(reg.ControlPlaneRead(800), 7u);
  EXPECT_EQ(reg.ControlPlaneRead(900), 7u);
  EXPECT_EQ(reg.ControlPlaneRead(997), 7u);
  EXPECT_EQ(reg.ControlPlaneRead(998), 70u);
  EXPECT_EQ(reg.ControlPlaneRead(999), 5u);
  reg.ControlPlaneWrite(0, 4);
  EXPECT_EQ(reg.ControlPlaneRead(0), 4u);
  EXPECT_EQ(reg.ControlPlaneRead(1), 7u);
}

TEST(RegisterTest, ControlPlaneWriteBypassesBudget) {
  RegisterArray<uint32_t> reg("r", 1);
  PacketPass pass;
  reg.Read(pass, 0);
  reg.ControlPlaneWrite(0, 5);  // control plane is out of band
  EXPECT_EQ(reg.ControlPlaneRead(0), 5u);
}

TEST(RegisterTest, LedgerAccountsMemory) {
  ResourceLedger ledger;
  RegisterArray<uint64_t> a("a", 100, 0, &ledger, 8);
  RegisterArray<uint8_t> b("b", 16, 0, &ledger, 1);
  EXPECT_EQ(ledger.total_bytes(), 816u);
  ASSERT_EQ(ledger.entries().size(), 2u);
  EXPECT_EQ(ledger.entries()[0].name, "a");
  EXPECT_EQ(ledger.entries()[0].elements, 100u);
}

// ---------------------------------------------------------------------------
// SwitchPipeline: pass timing, recirculation port, drops.
// ---------------------------------------------------------------------------

// A program that echoes packets back to their source, recirculating `bounces`
// times first.
class BounceProgram : public SwitchProgram {
 public:
  explicit BounceProgram(uint32_t bounces) : bounces_(bounces) {}

  void OnPass(PassContext& ctx, net::Packet pkt) override {
    if (ctx.pass_number() < bounces_) {
      ctx.Recirculate(std::move(pkt), guaranteed_);
      return;
    }
    pkt.dst = pkt.src;
    ctx.Emit(std::move(pkt));
  }

  void set_guaranteed(bool g) { guaranteed_ = g; }

 private:
  uint32_t bounces_;
  bool guaranteed_ = false;
};

class PipelineFixture : public ::testing::Test {
 protected:
  struct Sink : net::Endpoint {
    void HandlePacket(net::Packet pkt) override { received.push_back(std::move(pkt)); }
    std::vector<net::Packet> received;
  };

  static net::NetworkConfig NetConfig() {
    net::NetworkConfig c;
    c.propagation = 1000;
    c.ns_per_byte = 0.0;
    c.max_jitter = 0;
    return c;
  }

  void Build(SwitchProgram* program, PipelineConfig cfg) {
    network = std::make_unique<net::Network>(&simulator, NetConfig());
    pipeline = std::make_unique<SwitchPipeline>(&simulator, program, cfg);
    switch_node = pipeline->AttachNetwork(network.get());
    sink_node = network->Register(&sink, net::HostProfile::Wire());
  }

  void SendOne() {
    net::Packet p;
    p.op = net::OpCode::kOther;
    p.dst = switch_node;
    network->Send(sink_node, std::move(p));
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<SwitchPipeline> pipeline;
  Sink sink;
  net::NodeId switch_node = net::kInvalidNode;
  net::NodeId sink_node = net::kInvalidNode;
};

TEST_F(PipelineFixture, ForwardsAfterPassLatency) {
  BounceProgram program(0);
  PipelineConfig cfg;
  cfg.pass_latency = 450;
  Build(&program, cfg);
  SendOne();
  // 1000 (to switch) + 450 (pass) + 1000 (back) = 2450.
  simulator.RunUntil(2400);
  EXPECT_TRUE(sink.received.empty());
  simulator.RunUntil(2500);
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(pipeline->counters().packets_in, 1u);
  EXPECT_EQ(pipeline->counters().passes, 1u);
  EXPECT_EQ(pipeline->counters().emitted, 1u);
}

TEST_F(PipelineFixture, RecirculationCountsPasses) {
  BounceProgram program(3);
  Build(&program, PipelineConfig{});
  SendOne();
  simulator.RunAll();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(pipeline->counters().passes, 4u);
  EXPECT_EQ(pipeline->counters().recirculations, 3u);
  EXPECT_EQ(sink.received[0].pipeline_passes, 3u);
  EXPECT_NEAR(pipeline->counters().RecirculationShare(), 0.75, 1e-9);
}

TEST_F(PipelineFixture, RecirculationAddsLatency) {
  BounceProgram program(1);
  PipelineConfig cfg;
  cfg.pass_latency = 450;
  cfg.recirc_latency = 750;
  cfg.recirc_rate_pps = 1e9;
  Build(&program, cfg);
  SendOne();
  // 1000 + 750 (recirc) + 450 (final pass) + 1000 = 3200 + recirc service ~1.
  simulator.RunUntil(3100);
  EXPECT_TRUE(sink.received.empty());
  simulator.RunUntil(3300);
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(PipelineFixture, RecirculationPortOverflowDrops) {
  BounceProgram program(1);
  PipelineConfig cfg;
  cfg.recirc_rate_pps = 1e6;    // 1 us per recirculated packet
  cfg.recirc_queue_depth = 4;
  Build(&program, cfg);
  for (int i = 0; i < 20; ++i) {
    SendOne();
  }
  simulator.RunAll();
  EXPECT_GT(pipeline->counters().recirc_drops, 0u);
  EXPECT_EQ(sink.received.size() + pipeline->counters().recirc_drops, 20u);
}

TEST_F(PipelineFixture, GuaranteedRecirculationNeverDrops) {
  BounceProgram program(1);
  program.set_guaranteed(true);
  PipelineConfig cfg;
  cfg.recirc_rate_pps = 1e6;
  cfg.recirc_queue_depth = 4;
  Build(&program, cfg);
  for (int i = 0; i < 20; ++i) {
    SendOne();
  }
  simulator.RunAll();
  EXPECT_EQ(pipeline->counters().recirc_drops, 0u);
  EXPECT_EQ(sink.received.size(), 20u);
}

TEST_F(PipelineFixture, ProgramDropsAreCountedByReason) {
  class Dropper : public SwitchProgram {
   public:
    void OnPass(PassContext& ctx, net::Packet pkt) override { ctx.Drop(pkt, "testing"); }
  };
  Dropper program;
  Build(&program, PipelineConfig{});
  SendOne();
  SendOne();
  simulator.RunAll();
  EXPECT_EQ(pipeline->counters().program_drops.at("testing"), 2u);
  EXPECT_TRUE(sink.received.empty());
}

}  // namespace
}  // namespace draconis::p4
