// Structured output for sweep results: one JSON document per sweep and
// optional per-point CDF CSV dumps. This is the first-class replacement for
// the old DRACONIS_BENCH_CSV_DIR env-var side channel — benches expose it as
// --json=<path> / --csv-dir=<path>.
//
// JSON schema (schema_version 1):
//   {
//     "bench": "<spec.name>", "title": ..., "schema_version": 1,
//     "axis": {"name": ..., "unit": ...},
//     "quick": bool, "parallelism": N,
//     "points": [
//       {
//         "label": ..., "series": ..., "x": ...,
//         "scheduler": ..., "policy": ..., "seed": ...,
//         "offered_tasks_per_second": ..., "offered_utilization": ...,
//         "throughput_tps": ..., "executor_busy_fraction": ...,
//         "recirculation_share": ..., "drop_fraction": ...,
//         "recirc_drops": ..., "drain_time_ns": ...,
//         "events_executed": N,
//         "order_fingerprint": "0x<16 hex digits>",
//         "outcome_fingerprint": "0x<16 hex digits>",
//         "tasks_submitted": ..., "tasks_completed": ...,
//         "sched_delay": {histogram}, "queueing_delay": {histogram},
//         "e2e_delay": {histogram}, "get_task_delay": {histogram},
//         "counters": {flat SchedulerCounters},
//         "extra": {bench-specific scalars}
//       }, ...
//     ]
//   }
// Histogram objects are stats::Histogram::ToJson(): {"count", "mean_ns",
// "min_ns", "max_ns", "p50_ns", "p90_ns", "p95_ns", "p99_ns", "p999_ns"}
// (quantiles omitted when count is 0). The fingerprints are
// cluster::ExperimentResult's whole-run fingerprints, written as hex strings
// because a reader that parses JSON numbers as doubles loses the bits above
// 2^53.

#ifndef DRACONIS_SWEEP_REPORT_H_
#define DRACONIS_SWEEP_REPORT_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "sweep/sweep.h"

namespace draconis::sweep {

struct ReportOptions {
  size_t parallelism = 1;  // recorded in the document, not acted on
  bool quick = false;      // DRACONIS_BENCH_QUICK at run time
};

// One experiment result as a standalone JSON object (no point identity).
std::string ToJson(const cluster::ExperimentResult& result);

// The full sweep document as a string.
std::string RenderJson(const SweepSpec& spec, const std::vector<SweepPointResult>& results,
                       const ReportOptions& options);

// Writes RenderJson to `path`. Returns false (after logging to stderr) if
// the file cannot be written.
bool WriteJsonFile(const std::string& path, const SweepSpec& spec,
                   const std::vector<SweepPointResult>& results,
                   const ReportOptions& options);

// Dumps each point's non-empty latency CDFs to
// <dir>/<spec.name>_<label>_<metric>.csv (value_ns,fraction), including the
// per-priority histograms when the run tracked them. Returns the number of
// files written, or -1 if the directory is unwritable.
int WriteCsvDir(const std::string& dir, const SweepSpec& spec,
                const std::vector<SweepPointResult>& results);

}  // namespace draconis::sweep

#endif  // DRACONIS_SWEEP_REPORT_H_
