#include "core/rank_function.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace draconis::core {

namespace {

// A no-op task (declared duration 0) still has to move a tenant's finish tag
// forward, or a no-op flood would never be charged; bill it as 1 µs.
constexpr TimeNs kWfqMinCost = FromMicros(1);

}  // namespace

uint64_t StrictPriorityRank::Rank(p4::PacketPass& pass, const net::TaskInfo& task,
                                  TimeNs now) {
  (void)pass;
  (void)now;
  return task.tprops;
}

uint64_t SrptRank::Rank(p4::PacketPass& pass, const net::TaskInfo& task, TimeNs now) {
  (void)pass;
  (void)now;
  return static_cast<uint64_t>(std::max<TimeNs>(0, task.meta.exec_duration));
}

uint64_t EdfRank::Rank(p4::PacketPass& pass, const net::TaskInfo& task, TimeNs now) {
  (void)pass;
  return static_cast<uint64_t>(now) + static_cast<uint64_t>(FromMicros(task.tprops));
}

WfqRank::WfqRank(std::vector<uint32_t> weights, p4::ResourceLedger* ledger)
    : weights_(std::move(weights)),
      finish_tags_("wfq_finish_tags", std::max<size_t>(1, weights_.size()), 0, ledger,
                   /*wire_bytes_per_element=*/8),
      virtual_clock_("wfq_virtual_clock", 1, 0, ledger, /*wire_bytes_per_element=*/8) {
  DRACONIS_CHECK_MSG(!weights_.empty(), "WFQ needs at least one tenant weight");
  for (uint32_t w : weights_) {
    DRACONIS_CHECK_MSG(w > 0, "WFQ weights must be positive");
  }
}

uint64_t WfqRank::Rank(p4::PacketPass& pass, const net::TaskInfo& task, TimeNs now) {
  (void)now;
  const size_t tenant = std::min<size_t>(task.tprops, weights_.size() - 1);
  const uint64_t cost =
      static_cast<uint64_t>(std::max<TimeNs>(kWfqMinCost, task.meta.exec_duration)) /
      weights_[tenant];
  // Stage order on hardware: the clock is read in an earlier stage and rides
  // as packet metadata into the finish-tag stage's stateful ALU.
  const uint64_t vnow = virtual_clock_.Read(pass, 0);
  uint64_t start = 0;
  finish_tags_.Update(pass, tenant, [&](uint64_t finish) {
    start = std::max(vnow, finish);
    return start + cost;
  });
  return start;
}

void WfqRank::OnDequeue(p4::PacketPass& pass, uint64_t rank) {
  // SFQ: virtual time is the start tag of the task entering service. The max
  // keeps it monotone when a stale (smaller-rank) pop lands late.
  virtual_clock_.Update(pass, 0,
                        [rank](uint64_t v) { return std::max(v, rank); });
}

std::unique_ptr<RankFunction> MakeRankFunction(SwitchPolicy policy,
                                               const RankFunctionConfig& config,
                                               p4::ResourceLedger* ledger) {
  switch (policy) {
    case SwitchPolicy::kFifo:
      return nullptr;
    case SwitchPolicy::kStrictPriority:
      return std::make_unique<StrictPriorityRank>();
    case SwitchPolicy::kSrpt:
      return std::make_unique<SrptRank>();
    case SwitchPolicy::kEdf:
      return std::make_unique<EdfRank>();
    case SwitchPolicy::kWfq:
      return std::make_unique<WfqRank>(config.wfq_weights, ledger);
  }
  return nullptr;
}

}  // namespace draconis::core
