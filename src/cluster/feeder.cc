#include "cluster/feeder.h"

#include "cluster/client.h"
#include "cluster/testbed.h"
#include "common/check.h"

namespace draconis::cluster {

Feeder::Feeder(const workload::JobStream* stream) : stream_(stream) {
  DRACONIS_CHECK(stream != nullptr);
}

TimeNs Feeder::last_arrival() const { return stream_->empty() ? 0 : stream_->back().at; }

void Feeder::Start(Testbed* testbed, const std::vector<Client*>& clients) {
  DRACONIS_CHECK(testbed != nullptr);
  DRACONIS_CHECK(!clients.empty());
  simulator_ = &testbed->simulator();
  clients_ = clients;
  ScheduleNext();
}

void Feeder::ScheduleNext() {
  if (done()) {
    return;
  }
  simulator_->ScheduleAt((*stream_)[next_].at, [this] { Fire(); });
}

void Feeder::Fire() {
  clients_[next_ % clients_.size()]->SubmitJob((*stream_)[next_].tasks);
  ++next_;
  ScheduleNext();
}

}  // namespace draconis::cluster
