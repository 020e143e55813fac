// Incremental arrival feeder: the open-loop WorkloadDriver. Replays a
// JobStream into the clients, scheduling one simulator event at a time so
// huge job streams don't materialize as a million queued closures. Jobs are
// assigned to clients round-robin in arrival order.
//
// RunExperiment(config) runs a Feeder over config.workload's generated
// stream. A caller with a stream no WorkloadSpec describes (a CSV trace, a
// per-task rewrite of a generated stream) builds a Feeder over it and calls
// RunExperiment(config, feeder).

#ifndef DRACONIS_CLUSTER_FEEDER_H_
#define DRACONIS_CLUSTER_FEEDER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "sim/simulator.h"
#include "workload/spec.h"

namespace draconis::cluster {

class Feeder final : public WorkloadDriver {
 public:
  // `stream` must outlive the feeder and must be sorted by arrival time (as
  // the workload generators emit it).
  explicit Feeder(const workload::JobStream* stream);

  TimeNs last_arrival() const override;
  // Any stream runs; RunExperiment checks the warmup against last_arrival().
  std::string Validate(const ExperimentConfig&) const override { return ""; }
  // Schedules the first arrival; a no-op for an empty stream. `clients` must
  // be non-empty.
  void Start(Testbed* testbed, const std::vector<Client*>& clients) override;
  // True once every job in the stream has been fed.
  bool done() const override { return next_ >= stream_->size(); }
  size_t offered_tasks() const override { return workload::TotalTasks(*stream_); }
  TimeNs offered_work() const override { return workload::TotalWork(*stream_); }

  size_t jobs_fed() const { return next_; }

 private:
  void ScheduleNext();
  void Fire();

  const workload::JobStream* stream_;
  sim::Simulator* simulator_ = nullptr;
  std::vector<Client*> clients_;
  size_t next_ = 0;
};

}  // namespace draconis::cluster

#endif  // DRACONIS_CLUSTER_FEEDER_H_
