// Ladder/calendar queue backend for the EventQueue API (event_queue.h).
//
// A discrete-event simulator at data-center scale pushes most events a short
// horizon ahead (network hops, executor pulls) plus a sparse far tail
// (client timeouts, watchdogs). A comparison heap pays O(log n) per event
// for that mix; a ladder queue pays amortized O(1) by *bucketing* events by
// time and only sorting them just before they fire, in small batches:
//
//   bottom   the near-horizon run: a vector sorted by (at, seq), drained by
//            index. Pops come only from here. Covers [now, bottom_end_).
//   rungs    a stack of bucket arrays. Each rung spans a contiguous time
//            range split into power-of-two-width buckets; pushes append to
//            a bucket unsorted. rungs_[0] is the coarsest; the last rung is
//            the finest and is drained next. Coverage is contiguous:
//            the finest rung starts at bottom_end_, each coarser rung starts
//            where the finer one ends.
//   top      the far-future overflow: one unsorted vector for everything
//            beyond the last rung's horizon, with its min/max tracked.
//
// Epoch advance is lazy. When the bottom drains, the finest rung's next
// non-empty bucket is taken: a sparse bucket (<= kSortThreshold keys, or
// 1 ns wide) is batch-sorted into the bottom — consecutive sparse buckets
// are gathered into one batch so lightly-loaded queues amortize the refill
// fixed cost; a dense one is re-spread into a new, finer rung and the walk
// recurses. When every rung is exhausted, `top` is spread into a fresh
// rung[0] sized to kCoverageFactor x its own min..max span — so bucket
// widths adapt to the actual event density, and each key is touched
// O(log_B(span)) ~ 2-3 times in total.
//
// Timer-wheel fast path: dense spans up to kWheelSpan spread straight into
// 1 ns-per-slot buckets — the common case for the sub-microsecond re-arm
// horizons (network hops, executor pulls) that dominate simulation runs. A
// 1 ns slot holds a single instant and is kept sorted by seq as keys
// arrive, so its drain path never calls sort. Nearly every key arrives in
// ascending seq and appends; the exception is a timer's deferred key
// (simulator.h), re-pushed under the older seq it was armed with, which
// binary-searches into place (AppendTo). Coarse buckets take plain appends
// and are sorted when drained.
//
// Ordering is bit-identical to the heap backend: buckets partition time, the
// batch sort and the bottom insertion both use the (at, seq) contract, so
// the pop sequence is the global (at, seq) order no matter how keys were
// bucketed. Inserts that land below bottom_end_ (schedules for the
// already-sorted window) binary-search into the undrained suffix of the
// bottom, which stays small by construction (a gather batch's worth).
//
// `final` so the Simulator's calls through a concrete member devirtualize.

#ifndef DRACONIS_SIM_LADDER_QUEUE_H_
#define DRACONIS_SIM_LADDER_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace draconis::sim {

class LadderQueue final : public EventQueue {
 public:
  bool empty() const override { return live_ == 0; }
  size_t size() const override { return live_; }

  // Hot path, header-inline so the Simulator's monomorphized run loop can
  // flatten it. The cold epoch-advance machinery (EnsureBottom and friends)
  // stays out of line.
  void Push(EventKey key) override {
    ++live_;
    if (key.at < bottom_end_) {
      // Lands in the already-sorted window: binary-search into the
      // undrained suffix. The suffix is at most one bucket's worth of keys,
      // so the insert's memmove stays short.
      const auto it = std::upper_bound(
          bottom_.begin() + static_cast<ptrdiff_t>(bottom_next_),
          bottom_.end(), key, EventKeyBefore);
      bottom_.insert(it, key);
      return;
    }
    // Finest rung first: high-frequency re-arms (executor pulls, network
    // hops) almost always land there, so this loop is one iteration in
    // practice.
    for (size_t r = depth_; r-- > 0;) {
      Rung& rung = rungs_[r];
      if (key.at < rung.end) {
        AppendTo(rung.buckets[static_cast<size_t>(key.at - rung.start) >>
                              rung.width_log2],
                 key, rung.width_log2 == 0);
        ++rung.count;
        return;
      }
    }
    PushTop(key);
  }

  bool PeekTop(EventKey* out) override {
    if (bottom_next_ >= bottom_.size() && !EnsureBottom()) {
      return false;
    }
    *out = bottom_[bottom_next_];
    return true;
  }

  EventKey PopTop() override {
    // Usually a no-op compare: the run loop peeks first, which already
    // refilled the bottom. Bare pops on a non-empty queue must work too.
    if (bottom_next_ >= bottom_.size()) {
      EnsureBottom();
    }
    --live_;
    return bottom_[bottom_next_++];
  }

  void Clear() override;

 private:
  // 2^6 buckets per rung: one cache-friendly bucket array per spread, and a
  // span shrink factor of 64x per ladder level.
  static constexpr int kRungBucketsLog2 = 6;
  static constexpr size_t kRungBuckets = size_t{1} << kRungBucketsLog2;
  // Buckets at most this large are batch-sorted into the bottom; larger ones
  // re-spread one level finer. Sized so the sort stays in-cache and the
  // bottom's sorted-insert memmove window stays short.
  static constexpr size_t kSortThreshold = 64;
  // SpreadTop covers this multiple of the observed top span: steady-state
  // workloads keep scheduling into the same horizon while the rung drains,
  // and the headroom lets those pushes land in rung buckets directly
  // instead of re-transiting the top every epoch.
  static constexpr TimeNs kCoverageFactor = 4;
  // Spans up to this go straight to a 1 ns-per-bucket timer wheel instead
  // of a coarse rung (see the file comment).
  static constexpr int kWheelSpanLog2 = 12;
  static constexpr TimeNs kWheelSpan = TimeNs{1} << kWheelSpanLog2;

  struct Rung {
    TimeNs start = 0;   // time of bucket 0
    TimeNs end = 0;     // exclusive horizon of the whole rung
    int width_log2 = 0; // bucket width is (1 << width_log2) ns
    size_t cur = 0;     // next bucket to drain
    size_t count = 0;   // keys in buckets at index >= cur
    std::vector<std::vector<EventKey>> buckets;
  };

  // Appends `key` to a bucket. A 1 ns bucket (`one_instant`) stays sorted
  // by seq: a key older than its back — a timer's deferred key — is
  // inserted in place. Other buckets are sorted when drained.
  static void AppendTo(std::vector<EventKey>& bucket, EventKey key,
                       bool one_instant) {
    if (one_instant && !bucket.empty() && key.seq < bucket.back().seq) {
      InsertSorted(bucket, key);
      return;
    }
    bucket.push_back(key);
  }
  // The rare branch of AppendTo, out of line so Push stays small where it
  // inlines.
  static void InsertSorted(std::vector<EventKey>& bucket, EventKey key);
  // Far-future fallback of Push: appends to the top and tracks its span.
  void PushTop(EventKey key);
  // Refills the drained bottom from the rungs/top. Returns false when the
  // queue is empty. Maintains the invariant that bottom_end_ equals the
  // start of the first undrained bucket (or rung/top region) on return.
  bool EnsureBottom();
  // Spreads spread_scratch_ into a new finest rung covering
  // [start, start + 2^parent_width_log2).
  void SpawnRung(TimeNs start, int parent_width_log2);
  // Spreads the whole top into a fresh rung[0] sized to its min..max span.
  void SpreadTop();

  size_t live_ = 0;

  // Bottom: sorted ascending by (at, seq), drained by index.
  std::vector<EventKey> bottom_;
  size_t bottom_next_ = 0;
  TimeNs bottom_end_ = 0;  // exclusive; pushes below this sort into bottom_

  std::vector<Rung> rungs_;  // pool; [0, depth_) are active, [0] coarsest
  size_t depth_ = 0;

  std::vector<EventKey> top_;  // far future, unsorted
  TimeNs top_min_ = 0;
  TimeNs top_max_ = 0;

  std::vector<EventKey> spread_scratch_;  // reused bucket-spread staging
};

}  // namespace draconis::sim

#endif  // DRACONIS_SIM_LADDER_QUEUE_H_
