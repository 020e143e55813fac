// RackSched's intra-node scheduling policy (§2.2), split from racksched.h so
// the experiment API can name it without pulling the whole baseline in.

#ifndef DRACONIS_BASELINES_INTRA_NODE_POLICY_H_
#define DRACONIS_BASELINES_INTRA_NODE_POLICY_H_

#include "common/names.h"

namespace draconis::baselines {

enum class IntraNodePolicy {
  kFcfs,              // run-to-completion, no preemption (light-tailed)
  kProcessorSharing,  // preemptive equal sharing of the cores (heavy-tailed)
  kEdf,               // earliest-deadline-first over the TPROPS deadline tags
};

inline names::Table<IntraNodePolicy> NameTable(IntraNodePolicy) {
  static constexpr names::Spelling<IntraNodePolicy> kNames[] = {
      {IntraNodePolicy::kFcfs, "fcfs"},
      {IntraNodePolicy::kProcessorSharing, "ps"},
      {IntraNodePolicy::kEdf, "edf"},
  };
  return kNames;
}

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_INTRA_NODE_POLICY_H_
