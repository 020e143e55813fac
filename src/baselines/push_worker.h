// The execution path the push-based baseline workers share (R2P2, RackSched,
// Sparrow): the scheduler pushes a task to a worker, a core runs it, and the
// worker returns the completion notice to the client directly.

#ifndef DRACONIS_BASELINES_PUSH_WORKER_H_
#define DRACONIS_BASELINES_PUSH_WORKER_H_

#include <utility>

#include "cluster/metrics.h"
#include "common/time.h"
#include "net/network.h"
#include "net/packet.h"

namespace draconis::baselines {

// Records a pushed task a worker starts at `now`. The first execution of a
// task id records its assignment (at `now`) and its service start; a
// duplicate (timeout resubmission or straggler hedge) instead charges
// `occupancy`, the worker time it holds, as wasted work — the marginal cost
// of replication (docs/dag.md).
inline void RecordPushedStart(cluster::MetricsHub& metrics, const net::TaskInfo& task,
                              TimeNs now, TimeNs exec_start, TimeNs occupancy) {
  if (metrics.FirstExecution(task)) {
    metrics.RecordAssignment(task, now);
    metrics.RecordExecutionStart(task, exec_start);
  } else {
    metrics.RecordWastedWork(occupancy);
  }
}

// Starts a pushed task on a core that is busy from `now` until the task's
// service, beginning at `exec_start`, ends: records the start as above and
// the core's busy interval, which is also a duplicate's occupancy (dispatch,
// pickup and service — what the pull executors charge too). Returns the
// completion time.
inline TimeNs StartPushedTask(cluster::MetricsHub& metrics, const net::TaskInfo& task,
                              TimeNs now, TimeNs exec_start) {
  const TimeNs done = exec_start + task.meta.exec_duration;
  RecordPushedStart(metrics, task, now, exec_start, done - now);
  metrics.RecordBusyInterval(now, done);
  return done;
}

// Returns a finished task to its client. Tasks pushed without one (bare
// assignments in unit tests) complete silently.
inline void SendCompletionNotice(net::Network& network, net::NodeId from, net::NodeId client,
                                 net::TaskInfo task) {
  if (client == net::kInvalidNode) {
    return;
  }
  net::Packet notice;
  notice.op = net::OpCode::kCompletionNotice;
  notice.dst = client;
  notice.tasks = {std::move(task)};
  network.Send(from, std::move(notice));
}

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_PUSH_WORKER_H_
