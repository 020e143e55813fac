// Registration functions of the baseline scheduler kinds. Each returns the
// kind's DeploymentInfo for the DeploymentRegistry (cluster/deployment.cc);
// the deployments themselves are file-local to deployments.cc and reached
// only through the registry.

#ifndef DRACONIS_BASELINES_DEPLOYMENTS_H_
#define DRACONIS_BASELINES_DEPLOYMENTS_H_

#include "cluster/deployment.h"

namespace draconis::baselines {

// Draconis-DPDK-Server / Draconis-Socket-Server: one CentralServerScheduler
// plus the shared pull-based executor fleet.
cluster::DeploymentInfo DpdkServerDeploymentInfo();
cluster::DeploymentInfo SocketServerDeploymentInfo();

// The in-switch push kinds: R2P2's JBSQ(k) program over per-executor worker
// queues, and RackSched's power-of-two program and Malcolm's latency-aware
// program over RackSched's two-layer workers.
cluster::DeploymentInfo R2P2DeploymentInfo();
cluster::DeploymentInfo RackSchedDeploymentInfo();
cluster::DeploymentInfo MalcolmDeploymentInfo();

// Sparrow: one or more batch-sampling schedulers plus late-binding workers.
// The only multi-scheduler kind.
cluster::DeploymentInfo SparrowDeploymentInfo();

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_DEPLOYMENTS_H_
