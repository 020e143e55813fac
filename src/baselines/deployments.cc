#include "baselines/deployments.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/central_server.h"
#include "baselines/malcolm.h"
#include "baselines/r2p2.h"
#include "baselines/racksched.h"
#include "baselines/sparrow.h"
#include "p4/pipeline.h"

namespace draconis::baselines {

namespace {

using cluster::ExperimentConfig;
using cluster::ExperimentResult;
using cluster::SchedulerKind;
using cluster::Testbed;

// Every baseline honors only its own scheduling discipline (the fcfs policy).
cluster::DeploymentInfo BaselineInfo(SchedulerKind kind, const char* canonical_name,
                                     const char* flag_name, cluster::DeploymentFactory make) {
  cluster::DeploymentInfo info;
  info.kind = kind;
  info.canonical_name = canonical_name;
  info.flag_name = flag_name;
  info.policies = {cluster::PolicyKind::kFcfs};
  info.make = std::move(make);
  return info;
}

// ---------------------------------------------------------------------------
// Central servers: one CentralServerScheduler and the pull-based fleet.
// ---------------------------------------------------------------------------

class CentralServerDeployment final : public cluster::PullBasedDeployment {
 public:
  CentralServerDeployment(const ExperimentConfig& config,
                          CentralServerConfig::Transport transport)
      : cluster::PullBasedDeployment(config), transport_(transport) {}

  void Build(Testbed& testbed) override {
    CentralServerConfig sc;
    sc.transport = transport_;
    server_ = std::make_unique<CentralServerScheduler>(&testbed, sc);
    scheduler_nodes_.push_back(server_->node_id());
  }

  void Harvest(ExperimentResult& result) override {
    const CentralServerCounters& c = server_->counters();
    result.counters.tasks_enqueued = c.tasks_enqueued;
    result.counters.tasks_assigned = c.tasks_assigned;
    result.counters.parked_requests = c.parked_requests;
    result.counters.queue_full_errors = c.queue_full_errors;
  }

 private:
  CentralServerConfig::Transport transport_;
  std::unique_ptr<CentralServerScheduler> server_;
};

// ---------------------------------------------------------------------------
// In-switch push kinds (R2P2, RackSched, Malcolm): a switch program on one
// SwitchPipeline pushes each task to a worker endpoint, and the workers'
// completion credits flow back through it.
// ---------------------------------------------------------------------------

template <typename Program>
class SwitchPushDeployment : public cluster::SchedulerDeployment {
 public:
  using ProgramFactory = std::unique_ptr<Program> (*)(const ExperimentConfig&, Testbed&);

  void Build(Testbed& testbed) override {
    program_ = make_program_(config(), testbed);
    pipeline_ = std::make_unique<p4::SwitchPipeline>(testbed, program_.get(), config().pipeline);
    scheduler_nodes_.push_back(pipeline_->node_id());
  }

  void ConfigureClient(cluster::ClientConfig& client) override {
    if (client.max_tasks_per_packet == 0) {
      client.max_tasks_per_packet = 1;  // the switch programs route one task per packet
    }
  }

  void Harvest(ExperimentResult& result) override {
    result.switch_counters = pipeline_->counters();
    result.recirculation_share = result.switch_counters.RecirculationShare();
    result.recirc_drops = result.switch_counters.recirc_drops;
    result.counters.tasks_pushed = program_->counters().tasks_pushed;
    result.counters.credits = program_->counters().credits;
  }

 protected:
  SwitchPushDeployment(const ExperimentConfig& config, ProgramFactory make_program)
      : cluster::SchedulerDeployment(config), make_program_(make_program) {}

  std::unique_ptr<Program> program_;

 private:
  ProgramFactory make_program_;
  std::unique_ptr<p4::SwitchPipeline> pipeline_;
};

std::unique_ptr<R2P2Program> MakeR2P2Program(const ExperimentConfig& config, Testbed&) {
  R2P2Config rc;
  rc.num_executors = config.num_workers * config.executors_per_worker;
  rc.jbsq_k = config.jbsq_k;
  return std::make_unique<R2P2Program>(rc);
}

// R2P2 JBSQ(k): one push target per executor slot, hosted per worker machine.
class R2P2Deployment final : public SwitchPushDeployment<R2P2Program> {
 public:
  explicit R2P2Deployment(const ExperimentConfig& config)
      : SwitchPushDeployment(config, MakeR2P2Program) {}

  void WireWorkers(Testbed& testbed) override {
    const ExperimentConfig& cfg = config();
    for (size_t w = 0; w < cfg.num_workers; ++w) {
      std::vector<size_t> slots;
      for (size_t e = 0; e < cfg.executors_per_worker; ++e) {
        slots.push_back(w * cfg.executors_per_worker + e);
      }
      workers_.push_back(std::make_unique<R2P2Worker>(&testbed, slots, static_cast<uint32_t>(w),
                                                      scheduler_nodes_[0]));
      for (size_t slot : slots) {
        program_->BindExecutor(slot, workers_.back()->node_id());
      }
    }
  }

  void Harvest(ExperimentResult& result) override {
    SwitchPushDeployment::Harvest(result);
    result.counters.credit_wait_recirculations = program_->counters().credit_wait_recirculations;
  }

 private:
  std::vector<std::unique_ptr<R2P2Worker>> workers_;
};

std::unique_ptr<RackSchedProgram> MakeRackSchedProgram(const ExperimentConfig& config,
                                                       Testbed& testbed) {
  RackSchedConfig rc;
  rc.num_nodes = config.num_workers;
  rc.seed = testbed.SeedFor(cluster::SeedDomain::kRackSched);
  return std::make_unique<RackSchedProgram>(rc);
}

std::unique_ptr<MalcolmProgram> MakeMalcolmProgram(const ExperimentConfig& config, Testbed&) {
  MalcolmConfig mc;
  mc.num_nodes = config.num_workers;
  return std::make_unique<MalcolmProgram>(mc);
}

// RackSched and Malcolm: the switch program picks a worker node, and each node
// runs the same two-layer RackSchedWorker — one intra-node dispatcher
// (config.racksched_intra_policy) with the same overheads — so the two kinds
// differ only in the switch program. Malcolm's workers report each task's
// sojourn on its completion credit, the signal its program steers by.
template <typename Program>
class NodePushDeployment final : public SwitchPushDeployment<Program> {
 public:
  NodePushDeployment(const ExperimentConfig& config,
                     typename SwitchPushDeployment<Program>::ProgramFactory make_program,
                     bool report_latency)
      : SwitchPushDeployment<Program>(config, make_program), report_latency_(report_latency) {}

  void WireWorkers(Testbed& testbed) override {
    const ExperimentConfig& cfg = this->config();
    for (size_t w = 0; w < cfg.num_workers; ++w) {
      workers_.push_back(std::make_unique<RackSchedWorker>(
          &testbed, cfg.executors_per_worker, static_cast<uint32_t>(w),
          this->scheduler_nodes_[0], TimeNs{3500}, TimeNs{200}, cfg.racksched_intra_policy,
          report_latency_));
      this->program_->BindNode(w, workers_.back()->node_id());
    }
  }

 private:
  bool report_latency_;
  std::vector<std::unique_ptr<RackSchedWorker>> workers_;
};

// ---------------------------------------------------------------------------
// Sparrow: num_schedulers replicated batch-sampling schedulers (clients are
// spread across them) plus their late-binding workers.
// ---------------------------------------------------------------------------

class SparrowDeployment final : public cluster::SchedulerDeployment {
 public:
  explicit SparrowDeployment(const ExperimentConfig& config)
      : cluster::SchedulerDeployment(config) {}

  void Build(Testbed& testbed) override {
    SparrowConfig sc;
    for (size_t s = 0; s < std::max<size_t>(1, config().num_schedulers); ++s) {
      sc.seed = testbed.SeedFor(cluster::SeedDomain::kSparrow, s);
      schedulers_.push_back(std::make_unique<SparrowScheduler>(&testbed, sc));
      scheduler_nodes_.push_back(schedulers_.back()->node_id());
    }
  }

  void WireWorkers(Testbed& testbed) override {
    const ExperimentConfig& cfg = config();
    std::vector<net::NodeId> worker_nodes;
    for (size_t w = 0; w < cfg.num_workers; ++w) {
      workers_.push_back(std::make_unique<SparrowWorker>(&testbed, cfg.executors_per_worker,
                                                         static_cast<uint32_t>(w)));
      worker_nodes.push_back(workers_.back()->node_id());
    }
    for (auto& scheduler : schedulers_) {
      scheduler->SetWorkers(worker_nodes);
    }
  }

  void ConfigureClient(cluster::ClientConfig& client) override {
    // Sparrow's clients live on the same optimized-sockets stack as its
    // schedulers.
    client.host_profile = SparrowConfig::Profile();
  }

  void Harvest(ExperimentResult& result) override {
    for (const auto& s : schedulers_) {
      result.counters.probes_sent += s->counters().probes_sent;
      result.counters.tasks_launched += s->counters().tasks_launched;
      result.counters.empty_get_tasks += s->counters().empty_get_tasks;
    }
  }

 private:
  std::vector<std::unique_ptr<SparrowScheduler>> schedulers_;
  std::vector<std::unique_ptr<SparrowWorker>> workers_;
};

}  // namespace

cluster::DeploymentInfo DpdkServerDeploymentInfo() {
  return BaselineInfo(SchedulerKind::kDraconisDpdkServer, "Draconis-DPDK-Server", "dpdk-server",
                      [](const ExperimentConfig& config) {
                        return std::make_unique<CentralServerDeployment>(
                            config, CentralServerConfig::Transport::kDpdk);
                      });
}

cluster::DeploymentInfo SocketServerDeploymentInfo() {
  return BaselineInfo(SchedulerKind::kDraconisSocketServer, "Draconis-Socket-Server",
                      "socket-server", [](const ExperimentConfig& config) {
                        return std::make_unique<CentralServerDeployment>(
                            config, CentralServerConfig::Transport::kSocket);
                      });
}

cluster::DeploymentInfo R2P2DeploymentInfo() {
  return BaselineInfo(SchedulerKind::kR2P2, "R2P2", "r2p2", [](const ExperimentConfig& config) {
    return std::make_unique<R2P2Deployment>(config);
  });
}

cluster::DeploymentInfo RackSchedDeploymentInfo() {
  cluster::DeploymentInfo info = BaselineInfo(
      SchedulerKind::kRackSched, "RackSched", "racksched", [](const ExperimentConfig& config) {
        return std::make_unique<NodePushDeployment<RackSchedProgram>>(
            config, MakeRackSchedProgram, /*report_latency=*/false);
      });
  info.intra_node_dispatcher = true;
  return info;
}

cluster::DeploymentInfo SparrowDeploymentInfo() {
  cluster::DeploymentInfo info = BaselineInfo(
      SchedulerKind::kSparrow, "Sparrow", "sparrow",
      [](const ExperimentConfig& config) { return std::make_unique<SparrowDeployment>(config); });
  info.multi_scheduler = true;
  return info;
}

cluster::DeploymentInfo MalcolmDeploymentInfo() {
  cluster::DeploymentInfo info = BaselineInfo(
      SchedulerKind::kMalcolm, "Malcolm", "malcolm", [](const ExperimentConfig& config) {
        return std::make_unique<NodePushDeployment<MalcolmProgram>>(
            config, MakeMalcolmProgram, /*report_latency=*/true);
      });
  info.intra_node_dispatcher = true;
  return info;
}

}  // namespace draconis::baselines
