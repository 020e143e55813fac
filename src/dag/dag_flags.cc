#include "dag/dag_flags.h"

#include <cstdint>
#include <string>

namespace draconis::dag {

void DagFlags::Register(flags::Parser* parser) {
  parser->AddChoice("dag-shape", &shape, names::Names<DagShape>(),
                    "generated DAG shape (docs/dag.md)");
  parser->AddInt64("dag-depth", &depth, "levels per job (chain length for chain)");
  parser->AddInt64("dag-width", &width, "tasks per middle level (fanout, random)");
  parser->AddDouble("dag-edge-prob", &edge_prob, "random shape: extra-edge probability");
  parser->AddDouble("dag-jobs-per-second", &jobs_per_second, "Poisson job arrival rate");
  parser->AddDuration("dag-duration", &duration, "job arrival window");
  parser->AddString("dag-service-time", &service_time,
                    "per-task service model, e.g. pareto:250us:1.3 (empty: spec default)");
  parser->AddInt64("dag-seed", &dag_seed, "DAG generation seed");
  parser->AddDouble("dag-hedge-quantile", &hedge_quantile,
                    "hedge once task age exceeds this observed-latency quantile");
  parser->AddDouble("dag-hedge-multiplier", &hedge_multiplier,
                    "scale on the hedge-delay quantile");
  parser->AddDuration("dag-hedge-min-delay", &hedge_min_delay, "hedge delay floor");
  parser->AddDuration("dag-hedge-initial-delay", &hedge_initial_delay,
                      "hedge delay before enough latencies are observed");
  parser->AddInt64("dag-hedge-min-samples", &hedge_min_samples,
                   "observed latencies needed before the quantile applies");
  parser->AddBool("dag-hedge-resample", &hedge_resample,
                  "duplicate re-draws its service time from the stage model");
}

bool DagFlags::Apply(DagWorkloadSpec* spec, HedgePolicy* policy, std::string* error) const {
  if (!names::Parse(shape, &spec->shape)) {
    *error = "unknown --dag-shape: " + shape;
    return false;
  }
  if (depth < 1 || width < 1) {
    *error = "--dag-depth and --dag-width must be >= 1";
    return false;
  }
  // The spec holds 32-bit sizes; a larger value would silently wrap.
  if (depth > UINT32_MAX || width > UINT32_MAX) {
    *error = std::string(depth > UINT32_MAX ? "--dag-depth" : "--dag-width") +
             " must be at most " + std::to_string(UINT32_MAX);
    return false;
  }
  spec->depth = static_cast<uint32_t>(depth);
  spec->width = static_cast<uint32_t>(width);
  spec->edge_prob = edge_prob;
  spec->jobs_per_second = jobs_per_second;
  spec->duration = duration;
  if (!service_time.empty() &&
      !workload::ServiceTime::FromName(service_time, &spec->service, error)) {
    *error = "--dag-service-time: " + *error;
    return false;
  }
  spec->seed = static_cast<uint64_t>(dag_seed);
  const std::string spec_error = spec->Validate();
  if (!spec_error.empty()) {
    *error = spec_error;
    return false;
  }

  policy->quantile = hedge_quantile;
  policy->multiplier = hedge_multiplier;
  policy->min_delay = hedge_min_delay;
  policy->initial_delay = hedge_initial_delay;
  if (hedge_min_samples < 1) {
    *error = "--dag-hedge-min-samples must be >= 1";
    return false;
  }
  policy->min_samples = static_cast<uint64_t>(hedge_min_samples);
  policy->resample_service = hedge_resample;
  const std::string policy_error = policy->Validate();
  if (!policy_error.empty()) {
    *error = policy_error;
    return false;
  }
  return true;
}

}  // namespace draconis::dag
