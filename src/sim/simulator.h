// Discrete-event simulator.
//
// The simulator owns a virtual clock and a slab of event slots indexed by a
// pluggable event queue of (time, sequence, slot) keys. Events scheduled for
// the same instant run in scheduling order (the sequence number breaks
// ties), which gives the deterministic serial packet ordering the switch
// model relies on.
//
// Scheduling surface: one orthogonal pair.
//
//   sim.ScheduleAt(at, fn);                  // fire-and-forget
//   sim.ScheduleAfter(delay, fn);
//   EventHandle h = sim.ScheduleAt(at, fn, kCancellable);   // cancellable
//   EventHandle h = sim.ScheduleAfter(delay, fn, kCancellable);
//
// The fire-and-forget default is the zero-overhead path; passing
// `kCancellable` opts into a handle. `Timer` is the reusable-event path for
// high-frequency periodic callers (executor pull loops and the like): the
// callback is stored once and re-arming costs at most one queue push — no
// per-occurrence allocation at all. A re-arm to a later deadline pushes
// nothing when the timer already has an earlier key queued; that key
// carries the deadline forward when it surfaces (see Timer).
//
// Engine layout:
//  - Slots live in a free-listed slab split into a hot generation array
//    (one word per slot — all the dequeue validation scan ever touches) and
//    a cold payload array (closure, timer pointer, freelist link). Slots are
//    recycled after an event fires or is cancelled, so steady-state
//    scheduling does not grow any container.
//  - The queue orders trivially copyable 24-byte keys; the closure never
//    moves. Two backends — the ladder queue (default) and the binary heap —
//    are selected at construction and produce bit-identical execution order
//    (see event_queue.h). Both are held as concrete `final` members behind
//    an enum dispatch, so the run loop is fully devirtualized.
//  - Cancellation is O(1) and allocation-free: handles carry the slot index
//    plus the generation the slot had when the event was scheduled. A
//    cancelled or fired slot bumps to a new generation on reuse, so a stale
//    handle can never touch the slot's next occupant. Cancelled events are
//    dropped lazily when their queue key surfaces (counted by
//    discarded_keys()).
//
// Handles and timers index into the simulator's slab and must not outlive
// it (in practice they are members of objects that already hold the
// `Simulator*`, declared after the simulator and destroyed before it).

#ifndef DRACONIS_SIM_SIMULATOR_H_
#define DRACONIS_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "sim/event_heap.h"
#include "sim/event_queue.h"
#include "sim/ladder_queue.h"

namespace draconis::sim {

class Simulator;

// True when the std::function payload of an event stores a callable of type
// F in its own buffer instead of boxing it on the heap: libstdc++ does so
// for trivially copyable callables of at most 16 bytes (two pointers).
// Allocation-free event paths static_assert it on their closures.
template <typename F>
inline constexpr bool kStoredInline = std::is_trivially_copyable_v<F> &&
                                      sizeof(F) <= 2 * sizeof(void*) &&
                                      alignof(F) <= alignof(void*);

// Tag selecting the cancellable Schedule{At,After} overloads:
//   sim.ScheduleAfter(delay, fn, kCancellable)
struct CancellableTag {
  explicit CancellableTag() = default;
};
inline constexpr CancellableTag kCancellable{};

// Handle for a scheduled event that may be cancelled before it fires.
// Copies refer to the same underlying event and observe each other's
// cancellation. After the event fires or is cancelled, every copy reports
// !pending() and further Cancel() calls are no-ops — including when the
// slot has been recycled for a newer event (the generation check).
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call repeatedly and on
  // default-constructed handles.
  void Cancel();

  // True if the event is still going to fire.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, uint32_t slot, uint64_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t gen_ = 0;
};

// A reusable scheduled callback: bind the closure once, then arm it as often
// as needed. At most one occurrence is pending at a time — re-arming
// replaces the previous one. Firing and re-arming are allocation-free,
// which is what the highest-frequency periodic callers (executor pull
// watchdogs, drain polls) want. The callback may re-arm its own timer.
// Non-copyable and non-movable: the simulator holds a pointer to it.
//
// Deferred keys. Every arm takes a fresh seq, exactly like a one-shot
// schedule, but pushes a queue key only when none of the timer's own keys
// is already queued at or before the new deadline. Otherwise the earlier
// key carries the deadline: when it surfaces stale, the run loop re-pushes
// (deadline, live seq) — the very key an eager push would have queued, so
// the occurrence fires at the same (at, seq) position. An idle executor's
// poll cycle (1 ms watchdog, then a microsecond retry) thus queues one
// watchdog key per millisecond instead of one per poll.
class Timer {
 public:
  Timer() = default;
  Timer(Simulator* sim, std::function<void()> fn) { Bind(sim, std::move(fn)); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer();

  // Registers the timer with `sim` and stores its callback. Must be called
  // exactly once before arming (two-phase init for members whose callback
  // captures `this`).
  void Bind(Simulator* sim, std::function<void()> fn);

  // Arms the timer to fire at `at` / after `delay`, replacing any pending
  // occurrence.
  void ScheduleAt(TimeNs at);
  void ScheduleAfter(TimeNs delay);

  // Disarms the pending occurrence, if any.
  void Cancel();

  // True if an occurrence is armed and has not fired yet.
  bool pending() const;

 private:
  friend class Simulator;

  // One of this timer's keys still in the event queue.
  struct QueuedKey {
    TimeNs at = 0;
    uint64_t seq = 0;
  };
  // Two entries cover the executor's watchdog-then-retry cycle. A third
  // successively earlier arm forgets the latest entry; its key later
  // surfaces as an orphan and is discarded like a cancelled one.
  static constexpr uint8_t kMaxQueuedKeys = 2;

  // Records a key just pushed for this timer as the new earliest one.
  void PushQueued(TimeNs at, uint64_t seq) {
    queued_[1] = queued_[0];  // a full stack forgets its latest entry
    queued_[0] = QueuedKey{at, seq};
    num_queued_ = num_queued_ < kMaxQueuedKeys ? num_queued_ + 1 : kMaxQueuedKeys;
  }
  // Drops the earliest queued key, which just surfaced.
  void PopQueued() {
    queued_[0] = queued_[1];
    --num_queued_;
  }
  // The earliest queued key; only valid while num_queued_ > 0.
  const QueuedKey& top() const { return queued_[0]; }

  Simulator* sim_ = nullptr;
  uint32_t slot_ = 0;
  uint8_t num_queued_ = 0;
  TimeNs deadline_ = 0;  // the armed occurrence's time, valid while pending()
  // Queued keys, earliest first: the top is [0]. Strictly ascending in
  // `at`, so they surface in stack order.
  QueuedKey queued_[kMaxQueuedKeys];
  std::function<void()> fn_;
};

class Simulator {
 public:
  explicit Simulator(QueueBackend backend = kDefaultQueueBackend)
      : backend_(backend) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }
  QueueBackend queue_backend() const { return backend_; }

  // Schedules fn at absolute time `at` (>= Now()), fire-and-forget.
  void ScheduleAt(TimeNs at, std::function<void()> fn);

  // Schedules fn after a relative delay (>= 0), fire-and-forget.
  void ScheduleAfter(TimeNs delay, std::function<void()> fn);

  // Cancellable variants: return a handle that can cancel the event.
  EventHandle ScheduleAt(TimeNs at, std::function<void()> fn, CancellableTag);
  EventHandle ScheduleAfter(TimeNs delay, std::function<void()> fn,
                            CancellableTag);

  // Runs events until the queue drains or the clock passes `until`.
  // Events scheduled exactly at `until` still run. Returns the number of
  // events executed.
  uint64_t RunUntil(TimeNs until);

  // Runs until the queue is completely empty.
  uint64_t RunAll();

  // Drops every pending event (used to tear down a run that has reached its
  // measurement horizon without draining executor loops). Outstanding
  // handles and timers all report !pending() afterwards.
  void Clear();

  // Number of live (scheduled, not yet fired or cancelled) events.
  size_t pending_events() const { return live_; }
  uint64_t executed_events() const { return executed_; }

  // A 64-bit fold of every executed event's (at, seq), in execution order.
  // Two runs that execute the same events at the same instants in the same
  // order agree on it; moving one event by a nanosecond or swapping two
  // same-instant events changes it. It costs one multiply-xor chain per
  // event and draws no random number.
  uint64_t order_fingerprint() const { return order_fingerprint_; }

  // Queue keys popped without running an event: cancelled one-shots and
  // timer keys superseded by a re-arm or a Cancel(). Host cost only — it
  // does not enter either fingerprint — but deterministic per seed and
  // equal on both backends.
  uint64_t discarded_keys() const { return discarded_keys_; }

 private:
  friend class EventHandle;
  friend class Timer;

  static constexpr uint32_t kNilSlot = UINT32_MAX;

  // Cold per-slot state; the hot liveness word lives in gens_ so the run
  // loop's stale-key scan touches one cache line per ~8 keys instead of one
  // per slot.
  struct Payload {
    std::function<void()> fn;  // one-shot payload; empty for timer slots
    Timer* timer = nullptr;    // set for slots pinned by a Timer
    uint32_t next_free = kNilSlot;
  };

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  // Schedules a one-shot event and returns (slot, gen) for handle creation.
  EventKey Push(TimeNs at, std::function<void()> fn);
  // Enum dispatch to a concrete backend; both calls devirtualize.
  void QueuePush(EventKey key);
  uint64_t Run(bool bounded, TimeNs until);
  template <typename Queue>
  uint64_t RunLoop(Queue& queue, bool bounded, TimeNs until);
  // A superseded key of `timer` surfaced: if it was the timer's earliest
  // queued key and nothing else queued reaches the armed deadline, re-push
  // the live occurrence's key. Rare, and kept out of line: inlined with its
  // queue push it tripled the run loop's code.
  [[gnu::noinline]] void CarryDeadline(Timer& timer, uint64_t stale_seq);

  // Timer plumbing.
  uint32_t RegisterTimer(Timer* timer);
  void UnregisterTimer(const Timer& timer);
  void ArmTimer(Timer& timer, TimeNs at);
  void DisarmTimer(const Timer& timer);
  bool TimerPending(const Timer& timer) const;

  // EventHandle plumbing.
  void CancelHandle(const EventHandle& handle);
  bool HandlePending(const EventHandle& handle) const;

  const QueueBackend backend_;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t order_fingerprint_ = 0;
  uint64_t discarded_keys_ = 0;
  size_t live_ = 0;
  uint32_t free_head_ = kNilSlot;
  // Hot: generation + liveness in one word per slot — `seq + 1` of the
  // current occupancy while armed, 0 once it fires / is cancelled /
  // is disarmed. A queue key or handle is live iff this equals its own
  // seq + 1, which makes pop-validation and stale-handle rejection a single
  // compare.
  std::vector<uint64_t> gens_;
  std::vector<Payload> payloads_;  // cold, parallel to gens_
  EventHeap heap_;
  LadderQueue ladder_;
};

// The scheduling fast path is header-inline: benches and the cluster layers
// schedule millions of events per run, and the slab + queue push should
// flatten into the caller.

inline uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNilSlot) {
    const uint32_t slot = free_head_;
    free_head_ = payloads_[slot].next_free;
    return slot;
  }
  gens_.push_back(0);
  payloads_.emplace_back();
  return static_cast<uint32_t>(gens_.size() - 1);
}

inline void Simulator::QueuePush(EventKey key) {
  if (backend_ == QueueBackend::kLadder) {
    ladder_.Push(key);
  } else {
    heap_.Push(key);
  }
}

inline EventKey Simulator::Push(TimeNs at, std::function<void()> fn) {
  DRACONIS_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  const uint64_t seq = next_seq_++;
  const uint32_t slot = AllocSlot();
  gens_[slot] = seq + 1;
  payloads_[slot].fn = std::move(fn);
  QueuePush(EventKey{at, seq, slot});
  ++live_;
  return EventKey{at, seq, slot};
}

inline void Simulator::ScheduleAt(TimeNs at, std::function<void()> fn) {
  Push(at, std::move(fn));
}

inline void Simulator::ScheduleAfter(TimeNs delay, std::function<void()> fn) {
  DRACONIS_CHECK(delay >= 0);
  Push(now_ + delay, std::move(fn));
}

inline EventHandle Simulator::ScheduleAt(TimeNs at, std::function<void()> fn,
                                         CancellableTag) {
  const EventKey key = Push(at, std::move(fn));
  return EventHandle(this, key.slot, key.seq);
}

inline EventHandle Simulator::ScheduleAfter(TimeNs delay,
                                            std::function<void()> fn,
                                            CancellableTag) {
  DRACONIS_CHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn), kCancellable);
}

// Timer re-arm is the other per-event hot path (executor pull loops re-arm
// from inside the callback), so it inlines the same way.

inline void Simulator::ArmTimer(Timer& timer, TimeNs at) {
  DRACONIS_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  if (gens_[timer.slot_] == 0) {
    ++live_;
  }
  const uint64_t seq = next_seq_++;
  gens_[timer.slot_] = seq + 1;  // any previously pushed key goes stale
  timer.deadline_ = at;
  // A queued key at or before `at` surfaces first and carries the deadline
  // (CarryDeadline); only an earlier deadline needs a key of its own.
  if (timer.num_queued_ == 0 || at < timer.top().at) {
    timer.PushQueued(at, seq);
    QueuePush(EventKey{at, seq, timer.slot_});
  }
}

inline void Simulator::DisarmTimer(const Timer& timer) {
  if (gens_[timer.slot_] != 0) {
    gens_[timer.slot_] = 0;
    --live_;
  }
}

inline bool Simulator::TimerPending(const Timer& timer) const {
  return gens_[timer.slot_] != 0;
}

inline void Timer::ScheduleAt(TimeNs at) {
  DRACONIS_CHECK_MSG(sim_ != nullptr, "Timer used before Bind()");
  sim_->ArmTimer(*this, at);
}

inline void Timer::ScheduleAfter(TimeNs delay) {
  DRACONIS_CHECK_MSG(sim_ != nullptr, "Timer used before Bind()");
  DRACONIS_CHECK(delay >= 0);
  sim_->ArmTimer(*this, sim_->Now() + delay);
}

inline void Timer::Cancel() {
  if (sim_ != nullptr) {
    sim_->DisarmTimer(*this);
  }
}

inline bool Timer::pending() const {
  return sim_ != nullptr && sim_->TimerPending(*this);
}

}  // namespace draconis::sim

#endif  // DRACONIS_SIM_SIMULATOR_H_
