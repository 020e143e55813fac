// RackSched's intra-node scheduling policy (§2.2), split from racksched.h so
// the experiment API can name it without pulling the whole baseline in.

#ifndef DRACONIS_BASELINES_INTRA_NODE_POLICY_H_
#define DRACONIS_BASELINES_INTRA_NODE_POLICY_H_

#include <string>

namespace draconis::baselines {

enum class IntraNodePolicy {
  kFcfs,              // run-to-completion, no preemption (light-tailed)
  kProcessorSharing,  // preemptive equal sharing of the cores (heavy-tailed)
  kEdf,               // earliest-deadline-first over the TPROPS deadline tags
};

// Round-trippable policy name ("fcfs", "ps", "edf").
inline const char* IntraNodePolicyName(IntraNodePolicy policy) {
  switch (policy) {
    case IntraNodePolicy::kFcfs:
      return "fcfs";
    case IntraNodePolicy::kProcessorSharing:
      return "ps";
    case IntraNodePolicy::kEdf:
      return "edf";
  }
  return "?";
}

inline bool IntraNodePolicyFromName(const std::string& name, IntraNodePolicy* out) {
  for (IntraNodePolicy policy : {IntraNodePolicy::kFcfs, IntraNodePolicy::kProcessorSharing,
                                 IntraNodePolicy::kEdf}) {
    if (name == IntraNodePolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

}  // namespace draconis::baselines

#endif  // DRACONIS_BASELINES_INTRA_NODE_POLICY_H_
