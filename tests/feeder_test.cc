// Unit tests for the open-loop workload driver: round-robin client
// assignment in arrival order, one simulator event at a time, and graceful
// handling of an empty stream.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/client.h"
#include "cluster/feeder.h"
#include "cluster/testbed.h"
#include "common/check.h"
#include "net/network.h"
#include "workload/spec.h"

namespace draconis::cluster {
namespace {

workload::JobStream MakeStream(size_t jobs, TimeNs spacing = FromMicros(10)) {
  workload::JobStream stream;
  for (size_t j = 0; j < jobs; ++j) {
    workload::JobArrival job;
    job.at = static_cast<TimeNs>(j + 1) * spacing;
    job.tasks.resize(j + 1);  // job j carries j+1 tasks: distinguishable sizes
    for (workload::TaskSpec& t : job.tasks) {
      t.duration = FromMicros(100);
    }
    stream.push_back(std::move(job));
  }
  return stream;
}

// One job submission as the scheduler sees it.
struct Fed {
  uint32_t client;      // submitting client's uid
  size_t tasks;         // tasks in the job
  TimeNs submitted_at;  // the client's send time
};

// Stands in for the scheduler: records every job submission.
class Sink : public net::Endpoint {
 public:
  void HandlePacket(net::Packet pkt) override {
    fed.push_back({pkt.uid, pkt.tasks.size(), pkt.tasks[0].meta.first_submit_time});
  }
  std::vector<Fed> fed;
};

class FeederTest : public ::testing::Test {
 protected:
  std::vector<Client*> MakeClients(size_t n) {
    sink_node_ = testbed.network().Register(&sink, net::HostProfile::Wire());
    std::vector<Client*> out;
    for (size_t c = 0; c < n; ++c) {
      ClientConfig cc;
      cc.uid = static_cast<uint32_t>(c);
      cc.fire_and_forget = true;  // no timeouts: the run ends with the stream
      clients_.push_back(std::make_unique<Client>(&testbed, cc));
      clients_.back()->SetScheduler(sink_node_);
      out.push_back(clients_.back().get());
    }
    return out;
  }

  Testbed testbed{TestbedConfig{}};
  Sink sink;

 private:
  net::NodeId sink_node_ = net::kInvalidNode;
  std::vector<std::unique_ptr<Client>> clients_;
};

TEST_F(FeederTest, AssignsJobsRoundRobinInArrivalOrder) {
  const workload::JobStream stream = MakeStream(7);
  Feeder feeder(&stream);
  EXPECT_FALSE(feeder.done());
  feeder.Start(&testbed, MakeClients(3));
  testbed.simulator().RunAll();

  ASSERT_EQ(sink.fed.size(), 7u);
  for (size_t j = 0; j < sink.fed.size(); ++j) {
    EXPECT_EQ(sink.fed[j].client, j % 3) << "job " << j;
    EXPECT_EQ(sink.fed[j].tasks, j + 1) << "job " << j;
  }
  EXPECT_TRUE(feeder.done());
  EXPECT_EQ(feeder.jobs_fed(), 7u);
  EXPECT_EQ(feeder.last_arrival(), FromMicros(70));
  EXPECT_EQ(feeder.offered_tasks(), 28u);
  EXPECT_EQ(feeder.offered_work(), 28 * FromMicros(100));
}

TEST_F(FeederTest, DeliversJobsAtTheirArrivalTimes) {
  const workload::JobStream stream = MakeStream(3, FromMicros(50));
  Feeder feeder(&stream);
  feeder.Start(&testbed, MakeClients(1));
  testbed.simulator().RunAll();
  ASSERT_EQ(sink.fed.size(), 3u);
  EXPECT_EQ(sink.fed[0].submitted_at, FromMicros(50));
  EXPECT_EQ(sink.fed[1].submitted_at, FromMicros(100));
  EXPECT_EQ(sink.fed[2].submitted_at, FromMicros(150));
}

TEST_F(FeederTest, EmptyStreamIsDoneImmediately) {
  const workload::JobStream stream;
  Feeder feeder(&stream);
  EXPECT_TRUE(feeder.done());
  EXPECT_EQ(feeder.last_arrival(), 0);
  feeder.Start(&testbed, MakeClients(4));  // must not schedule anything
  testbed.simulator().RunAll();
  EXPECT_TRUE(sink.fed.empty());
  EXPECT_EQ(feeder.jobs_fed(), 0u);
  EXPECT_EQ(testbed.simulator().Now(), 0);
}

TEST_F(FeederTest, SingleClientTakesEveryJob) {
  const workload::JobStream stream = MakeStream(5);
  Feeder feeder(&stream);
  feeder.Start(&testbed, MakeClients(1));
  testbed.simulator().RunAll();
  ASSERT_EQ(sink.fed.size(), 5u);
  for (const Fed& fed : sink.fed) {
    EXPECT_EQ(fed.client, 0u);
  }
}

TEST_F(FeederTest, RejectsZeroClients) {
  const workload::JobStream stream = MakeStream(1);
  Feeder feeder(&stream);
  EXPECT_THROW(feeder.Start(&testbed, {}), draconis::CheckFailure);
}

}  // namespace
}  // namespace draconis::cluster
