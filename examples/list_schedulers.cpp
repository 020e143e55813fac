// Enumerates the scheduler deployments registered in the DeploymentRegistry —
// the single source of truth for scheduler-kind names, --scheduler flag
// spellings, supported policies, and replication. A scheduler added through
// one deployment and its registration function shows up here (and in every
// bench's --scheduler choices) without touching this file.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/list_schedulers            # human-readable table
//   ./build/examples/list_schedulers --flags-only   # one flag spelling per line
//   ./build/examples/list_schedulers --workloads    # arrival processes + service times

#include <cstdio>
#include <cstring>
#include <string>

#include "cluster/deployment.h"
#include "cluster/experiment.h"
#include "common/flags.h"
#include "common/names.h"
#include "core/rank_function.h"
#include "dag/dag_flags.h"
#include "dag/job_spec.h"
#include "workload/workload.h"

using namespace draconis;

int main(int argc, char** argv) {
  const cluster::DeploymentRegistry& registry = cluster::DeploymentRegistry::Get();

  // --flags-only: the machine-readable spelling list, for shell loops like
  // the CI per-scheduler bench smoke.
  if (argc > 1 && std::strcmp(argv[1], "--flags-only") == 0) {
    for (const std::string& flag : registry.FlagChoices()) {
      std::printf("%s\n", flag.c_str());
    }
    return registry.all().empty() ? 1 : 0;
  }

  // --workloads: the declarative workload vocabulary (docs/workloads.md) —
  // registered arrival-process names for --workload and service-time name
  // templates for --service-time, mirroring what every bench accepts, plus
  // the DAG shapes and --dag-* grammar (docs/dag.md). The flag list is
  // printed from a throwaway parser carrying the same DagFlags registration
  // the benches use, so this listing can never drift from what they accept.
  if (argc > 1 && std::strcmp(argv[1], "--workloads") == 0) {
    std::printf("arrival processes (--workload):\n");
    for (const std::string& name : names::Names<workload::ArrivalKind>()) {
      std::printf("  %s\n", name.c_str());
    }
    std::printf("service-time templates (--service-time):\n");
    for (const std::string& name : workload::ServiceTime::NameTemplates()) {
      std::printf("  %s\n", name.c_str());
    }
    std::printf("dag shapes (--dag-shape):\n");
    for (const std::string& name : names::Names<dag::DagShape>()) {
      std::printf("  %s\n", name.c_str());
    }
    flags::Parser dag_parser("DAG workload and hedging flags (docs/dag.md)");
    dag::DagFlags dag_flags;
    dag_flags.Register(&dag_parser);
    std::fputs(dag_parser.Usage().c_str(), stdout);
    return 0;
  }

  // --switch-policies <kind>: the kind's supported switch queueing
  // disciplines (docs/pifo.md), one flag spelling per line, "fifo" first —
  // the inner axis of the CI per-scheduler bench smoke loop.
  if (argc > 2 && std::strcmp(argv[1], "--switch-policies") == 0) {
    const cluster::DeploymentInfo* info = registry.FindByName(argv[2]);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown scheduler kind: %s\n", argv[2]);
      return 1;
    }
    for (core::SwitchPolicy policy : info->switch_policies) {
      std::printf("%s\n", names::Name(policy));
    }
    return 0;
  }

  std::printf("%zu registered scheduler deployments:\n\n", registry.all().size());
  std::printf("%-24s %-16s %-10s %-36s %s\n", "scheduler", "--scheduler", "replicas",
              "policies", "switch-policies");
  for (const cluster::DeploymentInfo& info : registry.all()) {
    std::string policies;
    for (cluster::PolicyKind policy : info.policies) {
      if (!policies.empty()) {
        policies += ", ";
      }
      policies += names::Name(policy);
    }
    std::string switch_policies;
    for (core::SwitchPolicy policy : info.switch_policies) {
      if (!switch_policies.empty()) {
        switch_policies += ", ";
      }
      switch_policies += names::Name(policy);
    }
    std::printf("%-24s %-16s %-10s %-36s %s\n", info.canonical_name, info.flag_name,
                info.multi_scheduler ? "yes" : "no", policies.c_str(),
                switch_policies.c_str());
  }
  std::printf("\nAdd a scheduler by writing one deployment for it and registering\n"
              "it in the DeploymentRegistry constructor — every bench,\n"
              "name lookup, and the experiment smoke matrix pick it up from there.\n");
  return registry.all().size() == 7 ? 0 : 1;
}
