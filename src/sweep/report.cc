#include "sweep/report.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>

#include "baselines/intra_node_policy.h"
#include "common/names.h"
#include "sim/event_queue.h"
#include "stats/histogram.h"

namespace draconis::sweep {

namespace {

std::string SanitizeForFilename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_';
    if (!keep) {
      c = '_';
    }
  }
  return out;
}

void WriteCounters(json::Writer& w, const cluster::SchedulerCounters& c) {
  w.BeginObject();
  w.Key("tasks_enqueued").UInt(c.tasks_enqueued);
  w.Key("tasks_assigned").UInt(c.tasks_assigned);
  w.Key("noops_sent").UInt(c.noops_sent);
  w.Key("queue_full_errors").UInt(c.queue_full_errors);
  w.Key("acks_sent").UInt(c.acks_sent);
  w.Key("add_repairs").UInt(c.add_repairs);
  w.Key("retrieve_repairs").UInt(c.retrieve_repairs);
  w.Key("swap_walks_started").UInt(c.swap_walks_started);
  w.Key("swap_exchanges").UInt(c.swap_exchanges);
  w.Key("swap_requeues").UInt(c.swap_requeues);
  w.Key("priority_probes").UInt(c.priority_probes);
  w.Key("tasks_pushed").UInt(c.tasks_pushed);
  w.Key("credit_wait_recirculations").UInt(c.credit_wait_recirculations);
  w.Key("credits").UInt(c.credits);
  w.Key("probes_sent").UInt(c.probes_sent);
  w.Key("tasks_launched").UInt(c.tasks_launched);
  w.Key("empty_get_tasks").UInt(c.empty_get_tasks);
  w.Key("parked_requests").UInt(c.parked_requests);
  w.EndObject();
}

// Fingerprints are written as "0x" + 16 hex digits: readers that parse JSON
// numbers as doubles would lose the bits above 2^53.
std::string HexWord(uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

void WriteResultBody(json::Writer& w, const cluster::ExperimentResult& result) {
  w.Key("offered_tasks_per_second").Double(result.offered_tasks_per_second);
  w.Key("offered_utilization").Double(result.offered_utilization);
  w.Key("throughput_tps").Double(result.throughput_tps);
  w.Key("executor_busy_fraction").Double(result.executor_busy_fraction);
  w.Key("recirculation_share").Double(result.recirculation_share);
  w.Key("drop_fraction").Double(result.drop_fraction);
  w.Key("recirc_drops").UInt(result.recirc_drops);
  w.Key("drain_time_ns").Int(result.drain_time);
  w.Key("events_executed").UInt(result.events_executed);
  w.Key("order_fingerprint").String(HexWord(result.order_fingerprint));
  w.Key("outcome_fingerprint").String(HexWord(result.outcome_fingerprint));
  if (result.metrics != nullptr) {
    const cluster::MetricsHub& m = *result.metrics;
    w.Key("tasks_submitted").UInt(m.tasks_submitted());
    w.Key("tasks_completed").UInt(m.tasks_completed());
    w.Key("timeout_resubmissions").UInt(m.timeout_resubmissions());
    w.Key("sched_delay");
    m.sched_delay().WriteJson(w);
    w.Key("queueing_delay");
    m.queueing_delay().WriteJson(w);
    w.Key("e2e_delay");
    m.e2e_delay().WriteJson(w);
    w.Key("slowdown_milli");
    m.slowdown_milli().WriteJson(w);
    w.Key("get_task_delay");
    m.get_task_delay().WriteJson(w);
    if (m.priority_levels() > 0) {
      w.Key("priority_queueing").BeginArray();
      for (size_t level = 1; level <= m.priority_levels(); ++level) {
        m.priority_queueing(level).WriteJson(w);
      }
      w.EndArray();
      w.Key("priority_get_task").BeginArray();
      for (size_t level = 1; level <= m.priority_levels(); ++level) {
        m.priority_get_task(level).WriteJson(w);
      }
      w.EndArray();
    }
  }
  w.Key("counters");
  WriteCounters(w, result.counters);
  // Emitted only for multi-rack topology runs (num_racks stays 0 otherwise),
  // so legacy sweep output keeps its byte-identical golden.
  if (result.num_racks > 0) {
    w.Key("num_racks").UInt(result.num_racks);
    w.Key("cross_rack_fraction").Double(result.cross_rack_fraction);
    w.Key("home_submissions").UInt(result.home_submissions);
    w.Key("cross_rack_submissions").UInt(result.cross_rack_submissions);
    w.Key("cross_rack_packets").UInt(result.cross_rack_packets);
    w.Key("summary_packets").UInt(result.summary_packets);
    w.Key("rack_decisions").BeginArray();
    for (uint64_t decisions : result.rack_decisions) {
      w.UInt(decisions);
    }
    w.EndArray();
  }
  // Emitted only for DAG workload runs (dag.active stays false otherwise),
  // so plain sweep output keeps its byte-identical golden. Job-level metrics
  // ride beside the task-level histograms above: makespan against its
  // critical-path lower bound, plus the hedging economics (docs/dag.md).
  if (result.dag.active) {
    const cluster::DagRunStats& dag = result.dag;
    w.Key("dag").BeginObject();
    w.Key("jobs_submitted").UInt(dag.jobs_submitted);
    w.Key("jobs_completed").UInt(dag.jobs_completed);
    w.Key("dag_tasks_submitted").UInt(dag.tasks_submitted);
    w.Key("hedges_launched").UInt(dag.hedges_launched);
    w.Key("hedge_wins").UInt(dag.hedge_wins);
    w.Key("replicas_cancelled").UInt(dag.replicas_cancelled);
    w.Key("wasted_work_ns").Int(dag.wasted_work);
    w.Key("wasted_work_fraction").Double(dag.wasted_work_fraction);
    w.Key("makespan");
    dag.makespan.WriteJson(w);
    w.Key("critical_path");
    dag.critical_path.WriteJson(w);
    w.Key("stretch_milli");
    dag.stretch_milli.WriteJson(w);
    w.EndObject();
  }
  // Emitted only for fault-plan runs, so fault-free sweep output (and its
  // golden in tests/sweep_test.cc) is byte-identical to before.
  if (result.recovery.fault_plan_active) {
    const cluster::RecoveryStats& rec = result.recovery;
    w.Key("recovery").BeginObject();
    w.Key("fault_start_ns").Int(rec.fault_start);
    w.Key("fault_clear_ns").Int(rec.fault_clear);
    w.Key("time_to_recover_ns").Int(rec.time_to_recover);
    w.Key("unavailability_ns").Int(rec.unavailability);
    w.Key("tasks_resubmitted").UInt(rec.tasks_resubmitted);
    w.Key("tasks_lost").UInt(rec.tasks_lost);
    w.Key("client_rehomes").UInt(rec.client_rehomes);
    w.Key("executor_rehomes").UInt(rec.executor_rehomes);
    w.Key("failovers").UInt(result.counters.failovers);
    w.Key("packets_dropped").UInt(rec.packets_dropped);
    w.Key("fault_events_started").UInt(rec.fault_events_started);
    w.Key("fault_events_cleared").UInt(rec.fault_events_cleared);
    if (result.metrics != nullptr) {
      const cluster::MetricsHub& m = *result.metrics;
      w.Key("e2e_pre_fault");
      m.e2e_pre_fault().WriteJson(w);
      w.Key("e2e_during_fault");
      m.e2e_during_fault().WriteJson(w);
      w.Key("e2e_post_fault");
      m.e2e_post_fault().WriteJson(w);
    }
    w.EndObject();
  }
}

}  // namespace

std::string ToJson(const cluster::ExperimentResult& result) {
  json::Writer w;
  w.BeginObject();
  WriteResultBody(w, result);
  w.EndObject();
  return w.str();
}

std::string RenderJson(const SweepSpec& spec, const std::vector<SweepPointResult>& results,
                       const ReportOptions& options) {
  json::Writer w;
  w.BeginObject();
  w.Key("bench").String(spec.name);
  w.Key("title").String(spec.title);
  w.Key("schema_version").Int(1);
  w.Key("axis").BeginObject();
  w.Key("name").String(spec.axis.name);
  w.Key("unit").String(spec.axis.unit);
  w.EndObject();
  w.Key("quick").Bool(options.quick);
  w.Key("parallelism").UInt(options.parallelism);
  w.Key("points").BeginArray();
  for (const SweepPointResult& point : results) {
    w.BeginObject();
    w.Key("label").String(point.label);
    w.Key("series").String(point.series);
    w.Key("x").Double(point.x);
    if (point.index < spec.points.size()) {
      const cluster::ExperimentConfig& config = spec.points[point.index].config;
      w.Key("scheduler").String(cluster::SchedulerKindName(config.scheduler));
      w.Key("policy").String(names::Name(config.policy));
      // Emitted only in PIFO mode, so pre-PIFO sweep output (and its golden
      // in tests/sweep_test.cc) stays byte-identical.
      if (config.switch_policy != core::SwitchPolicy::kFifo) {
        w.Key("switch_policy").String(names::Name(config.switch_policy));
      }
      // Likewise only for a non-FCFS RackSched/Malcolm intra-node dispatcher.
      if (config.racksched_intra_policy != baselines::IntraNodePolicy::kFcfs) {
        w.Key("racksched_intra_policy").String(names::Name(config.racksched_intra_policy));
      }
      w.Key("sim_queue").String(names::Name(config.sim_queue));
      w.Key("seed").UInt(config.seed);
      // Emitted only when the point carries a WorkloadSpec (DAG points and
      // the golden in tests/sweep_test.cc carry none).
      if (config.workload.enabled()) {
        w.Key("workload");
        config.workload.WriteJson(w);
      }
    }
    WriteResultBody(w, point.result);
    if (!point.scalars.empty()) {
      w.Key("extra").BeginObject();
      for (const auto& [key, value] : point.scalars) {
        w.Key(key).Double(value);
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str() + "\n";
}

bool WriteJsonFile(const std::string& path, const SweepSpec& spec,
                   const std::vector<SweepPointResult>& results,
                   const ReportOptions& options) {
  const std::string doc = RenderJson(spec, results, options);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "sweep: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  return true;
}

namespace {

bool DumpCdf(const std::string& dir, const SweepSpec& spec, const SweepPointResult& point,
             const char* metric, const stats::Histogram& h) {
  if (h.count() == 0) {
    return false;
  }
  const std::string path = dir + "/" + SanitizeForFilename(spec.name) + "_" +
                           SanitizeForFilename(point.label) + "_" + metric + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "value_ns,fraction\n");
  for (const stats::CdfPoint& p : h.Cdf()) {
    std::fprintf(f, "%lld,%.6f\n", static_cast<long long>(p.value), p.fraction);
  }
  std::fclose(f);
  return true;
}

}  // namespace

int WriteCsvDir(const std::string& dir, const SweepSpec& spec,
                const std::vector<SweepPointResult>& results) {
  // Probe writability once so a bad --csv-dir fails loudly, not per file.
  const std::string probe = dir + "/.draconis_sweep_probe";
  std::FILE* f = std::fopen(probe.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "sweep: csv dir %s is not writable\n", dir.c_str());
    return -1;
  }
  std::fclose(f);
  std::remove(probe.c_str());

  int written = 0;
  for (const SweepPointResult& point : results) {
    if (point.result.metrics == nullptr) {
      continue;
    }
    const cluster::MetricsHub& m = *point.result.metrics;
    written += DumpCdf(dir, spec, point, "sched_delay", m.sched_delay()) ? 1 : 0;
    written += DumpCdf(dir, spec, point, "queueing_delay", m.queueing_delay()) ? 1 : 0;
    written += DumpCdf(dir, spec, point, "e2e_delay", m.e2e_delay()) ? 1 : 0;
    written += DumpCdf(dir, spec, point, "slowdown_milli", m.slowdown_milli()) ? 1 : 0;
    written += DumpCdf(dir, spec, point, "get_task_delay", m.get_task_delay()) ? 1 : 0;
    for (size_t level = 1; level <= m.priority_levels(); ++level) {
      char name[40];
      std::snprintf(name, sizeof(name), "priority%zu_queueing", level);
      written += DumpCdf(dir, spec, point, name, m.priority_queueing(level)) ? 1 : 0;
      std::snprintf(name, sizeof(name), "priority%zu_get_task", level);
      written += DumpCdf(dir, spec, point, name, m.priority_get_task(level)) ? 1 : 0;
    }
    if (point.result.recovery.fault_plan_active) {
      written += DumpCdf(dir, spec, point, "e2e_pre_fault", m.e2e_pre_fault()) ? 1 : 0;
      written += DumpCdf(dir, spec, point, "e2e_during_fault", m.e2e_during_fault()) ? 1 : 0;
      written += DumpCdf(dir, spec, point, "e2e_post_fault", m.e2e_post_fault()) ? 1 : 0;
    }
    if (point.result.dag.active) {
      written += DumpCdf(dir, spec, point, "makespan", point.result.dag.makespan) ? 1 : 0;
      written +=
          DumpCdf(dir, spec, point, "critical_path", point.result.dag.critical_path) ? 1 : 0;
      written +=
          DumpCdf(dir, spec, point, "stretch_milli", point.result.dag.stretch_milli) ? 1 : 0;
    }
  }
  return written;
}

}  // namespace draconis::sweep
