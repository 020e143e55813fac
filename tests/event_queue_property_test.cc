// Oracle differential tests for the event engine.
//
// A naive reference queue — a sorted std::vector of (at, seq, id) with
// eager cancellation — is driven through the same randomized interleavings
// of schedule / cancel / timer-arm / run-until as the real slab+queue
// engine, on each queue backend. At every step the firing order, the clock,
// and the live-event count must match exactly; after each drain every
// outstanding handle's pending() must agree with the model. 32 seeds x
// ~10k operations per backend. Timer operations include the shapes that
// exercise deferred timer keys (simulator.h): a far watchdog re-armed near,
// runs of successively earlier re-arms that overflow a timer's key stack,
// timers destroyed with keys queued and their slots reused, and Clear()
// while a disarmed timer still has keys queued. A second differential
// drives the raw EventQueue backends against each other below the
// Simulator entirely.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_heap.h"
#include "sim/ladder_queue.h"
#include "sim/simulator.h"

namespace draconis::sim {
namespace {

struct RefEvent {
  TimeNs at = 0;
  uint64_t seq = 0;
  int id = 0;
};

// The oracle: keeps live events in a flat vector, fires them in exact
// (at, seq) order, removes cancellations eagerly. Mirrors the engine's seq
// allocation: every schedule or timer re-arm consumes one seq.
class ReferenceQueue {
 public:
  uint64_t Schedule(TimeNs at, int id) {
    const uint64_t seq = next_seq_++;
    events_.push_back(RefEvent{at, seq, id});
    return seq;
  }

  // Returns true if the seq was still pending (and removes it).
  bool Cancel(uint64_t seq) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->seq == seq) {
        events_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool IsPending(uint64_t seq) const {
    return std::any_of(events_.begin(), events_.end(),
                       [seq](const RefEvent& e) { return e.seq == seq; });
  }

  // Fires everything with at <= until, in (at, seq) order; advances now().
  std::vector<int> RunUntil(TimeNs until) {
    std::vector<int> fired;
    for (;;) {
      auto next = std::min_element(events_.begin(), events_.end(),
                                   [](const RefEvent& a, const RefEvent& b) {
                                     return a.at != b.at ? a.at < b.at : a.seq < b.seq;
                                   });
      if (next == events_.end() || next->at > until) {
        break;
      }
      now_ = next->at;
      fired.push_back(next->id);
      events_.erase(next);
    }
    if (now_ < until) {
      now_ = until;
    }
    return fired;
  }

  void Clear() { events_.clear(); }

  TimeNs now() const { return now_; }
  size_t live() const { return events_.size(); }

 private:
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<RefEvent> events_;
};

struct LiveHandle {
  EventHandle handle;
  uint64_t ref_seq = 0;
};

constexpr int kTimerCount = 3;

struct Fixture {
  explicit Fixture(QueueBackend backend) : sim(backend) {}

  // Timer t fires id -(t+1), so timer ids can't collide with one-shot ids.
  std::unique_ptr<Timer> MakeTimer(int t) {
    return std::make_unique<Timer>(&sim, [this, t] { fired.push_back(-(t + 1)); });
  }

  // Arms timer t at `at` in both the engine and the model; the re-arm
  // replaces its pending occurrence and consumes one seq.
  void ArmTimer(int t, TimeNs at) {
    timers[t]->ScheduleAt(at);
    DropTimerOccurrence(t);
    timer_seq[t] = ref.Schedule(at, -(t + 1));
  }

  // Removes timer t's pending occurrence, if any, from the model.
  void DropTimerOccurrence(int t) {
    if (timer_seq[t].has_value()) {
      ref.Cancel(*timer_seq[t]);
      timer_seq[t].reset();
    }
  }

  Simulator sim;
  ReferenceQueue ref;
  std::vector<int> fired;  // ids recorded by real-engine callbacks
  std::vector<LiveHandle> handles;
  std::vector<std::unique_ptr<Timer>> timers;
  // ref seq of each timer's pending occurrence, if armed.
  std::optional<uint64_t> timer_seq[kTimerCount];
  int next_id = 0;
};

void DriveSeed(QueueBackend backend, uint64_t seed, int steps) {
  Fixture fx(backend);
  for (int t = 0; t < kTimerCount; ++t) {
    fx.timers.push_back(fx.MakeTimer(t));
  }

  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.NextBelow(110);
    if (op < 40) {
      // Plain one-shot event.
      const TimeNs at = fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000));
      const int id = fx.next_id++;
      fx.sim.ScheduleAt(at, [&fx, id] { fx.fired.push_back(id); });
      fx.ref.Schedule(at, id);
    } else if (op < 60) {
      // Cancellable one-shot event; keep the handle.
      const TimeNs at = fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000));
      const int id = fx.next_id++;
      EventHandle h =
          fx.sim.ScheduleAt(at, [&fx, id] { fx.fired.push_back(id); }, kCancellable);
      fx.handles.push_back(LiveHandle{h, fx.ref.Schedule(at, id)});
    } else if (op < 70) {
      // Cancel a random tracked handle (may already have fired).
      if (!fx.handles.empty()) {
        LiveHandle& lh = fx.handles[rng.NextBelow(fx.handles.size())];
        const bool was_pending = fx.ref.IsPending(lh.ref_seq);
        ASSERT_EQ(lh.handle.pending(), was_pending) << "seed=" << seed << " step=" << step;
        lh.handle.Cancel();
        fx.ref.Cancel(lh.ref_seq);
        ASSERT_FALSE(lh.handle.pending());
      }
    } else if (op < 78) {
      // Arm (or re-arm) a timer: replaces its pending occurrence and
      // consumes one seq, exactly like the engine.
      const int t = static_cast<int>(rng.NextBelow(kTimerCount));
      fx.ArmTimer(t, fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000)));
    } else if (op < 82) {
      // Cancel a timer.
      const int t = static_cast<int>(rng.NextBelow(kTimerCount));
      fx.timers[t]->Cancel();
      fx.DropTimerOccurrence(t);
      ASSERT_FALSE(fx.timers[t]->pending());
    } else if (op < 97) {
      // Run a bounded slice and compare the firing order id-for-id.
      const TimeNs until = fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(400));
      fx.fired.clear();
      const uint64_t ran = fx.sim.RunUntil(until);
      const std::vector<int> expected = fx.ref.RunUntil(until);
      ASSERT_EQ(fx.fired, expected) << "seed=" << seed << " step=" << step;
      ASSERT_EQ(ran, expected.size());
      // Fired timers are no longer pending in the model either.
      for (int t = 0; t < kTimerCount; ++t) {
        if (fx.timer_seq[t].has_value() && !fx.ref.IsPending(*fx.timer_seq[t])) {
          fx.timer_seq[t].reset();
        }
        ASSERT_EQ(fx.timers[t]->pending(), fx.timer_seq[t].has_value());
      }
    } else if (op < 100) {
      // Tear down the run: everything pending is dropped.
      fx.sim.Clear();
      fx.ref.Clear();
      for (int t = 0; t < kTimerCount; ++t) {
        fx.timer_seq[t].reset();
      }
    } else if (op < 103) {
      // Watchdog: arm about 1 ms ahead, then re-arm near (an executor's
      // pull, then its retry backoff).
      const int t = static_cast<int>(rng.NextBelow(kTimerCount));
      fx.ArmTimer(t, fx.sim.Now() + 1'000'000 + static_cast<TimeNs>(rng.NextBelow(1000)));
      fx.ArmTimer(t, fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000)));
    } else if (op < 105) {
      // Three to five successively earlier re-arms: more keys than a
      // timer's key stack holds.
      const int t = static_cast<int>(rng.NextBelow(kTimerCount));
      const int arms = 3 + static_cast<int>(rng.NextBelow(3));
      TimeNs at = fx.sim.Now() + 2000 + static_cast<TimeNs>(rng.NextBelow(1000));
      for (int i = 0; i < arms; ++i) {
        fx.ArmTimer(t, at);
        at -= 1 + static_cast<TimeNs>(rng.NextBelow(400));
        at = std::max(at, fx.sim.Now());
      }
    } else if (op < 107) {
      // Destroy a timer with its keys still queued and build a new one. The
      // freed slot goes to the next allocation: either a one-shot scheduled
      // first, or the new timer itself.
      const int t = static_cast<int>(rng.NextBelow(kTimerCount));
      fx.timers[t].reset();
      fx.DropTimerOccurrence(t);
      if (rng.NextBool(0.5)) {
        const TimeNs at = fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000));
        const int id = fx.next_id++;
        fx.sim.ScheduleAt(at, [&fx, id] { fx.fired.push_back(id); });
        fx.ref.Schedule(at, id);
      }
      fx.timers[t] = fx.MakeTimer(t);
      if (rng.NextBool(0.5)) {
        fx.ArmTimer(t, fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(2000)));
      }
    } else {
      // Clear() while a disarmed timer still has a key queued.
      const int t = static_cast<int>(rng.NextBelow(kTimerCount));
      fx.ArmTimer(t, fx.sim.Now() + static_cast<TimeNs>(rng.NextBelow(1000)));
      fx.timers[t]->Cancel();
      fx.DropTimerOccurrence(t);
      fx.sim.Clear();
      fx.ref.Clear();
      for (int u = 0; u < kTimerCount; ++u) {
        fx.timer_seq[u].reset();
      }
    }

    // Invariants after every operation.
    ASSERT_EQ(fx.sim.Now(), fx.ref.now()) << "seed=" << seed << " step=" << step;
    ASSERT_EQ(fx.sim.pending_events(), fx.ref.live()) << "seed=" << seed << " step=" << step;

    // Cap the tracked-handle set so cancels keep hitting live events.
    if (fx.handles.size() > 512) {
      fx.handles.erase(fx.handles.begin(), fx.handles.begin() + 256);
    }
  }

  // Final drain must agree event-for-event too.
  fx.fired.clear();
  fx.sim.RunAll();
  const std::vector<int> expected = fx.ref.RunUntil(fx.sim.Now());
  ASSERT_EQ(fx.fired, expected) << "seed=" << seed;
  ASSERT_EQ(fx.sim.pending_events(), 0u);
  for (const LiveHandle& lh : fx.handles) {
    ASSERT_FALSE(lh.handle.pending());
  }
}

class EventQueuePropertyTest : public ::testing::TestWithParam<QueueBackend> {};

TEST_P(EventQueuePropertyTest, MatchesNaiveReferenceAcross32Seeds) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    DriveSeed(GetParam(), seed, 10000);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// A deliberately adversarial clustering: many events at the same instant,
// interleaved with cancellations, so the (at, seq) tie-break is exercised
// hard.
TEST_P(EventQueuePropertyTest, SameInstantClustersKeepSchedulingOrder) {
  for (uint64_t seed = 100; seed < 108; ++seed) {
    Simulator sim(GetParam());
    ReferenceQueue ref;
    std::vector<int> fired;
    std::vector<LiveHandle> handles;
    Rng rng(seed);
    int next_id = 0;
    for (int round = 0; round < 200; ++round) {
      const TimeNs t = sim.Now() + static_cast<TimeNs>(rng.NextBelow(3));
      for (int burst = 0; burst < 20; ++burst) {
        const int id = next_id++;
        if (rng.NextBool(0.5)) {
          EventHandle h =
              sim.ScheduleAt(t, [&fired, id] { fired.push_back(id); }, kCancellable);
          handles.push_back(LiveHandle{h, ref.Schedule(t, id)});
        } else {
          sim.ScheduleAt(t, [&fired, id] { fired.push_back(id); });
          ref.Schedule(t, id);
        }
      }
      // Cancel half of the tracked handles.
      for (size_t i = 0; i + 1 < handles.size(); i += 2) {
        handles[i].handle.Cancel();
        ref.Cancel(handles[i].ref_seq);
      }
      handles.clear();
      fired.clear();
      const TimeNs until = sim.Now() + static_cast<TimeNs>(rng.NextBelow(4));
      sim.RunUntil(until);
      ASSERT_EQ(fired, ref.RunUntil(until)) << "seed=" << seed << " round=" << round;
      ASSERT_EQ(sim.pending_events(), ref.live());
    }
    sim.RunAll();
    // (drain; counts already compared each round)
  }
}

// A timer re-armed to a later deadline pushes no key: its earlier key
// carries the deadline and is re-pushed under the re-arm's own seq, so the
// occurrence still fires between the same-instant events scheduled before
// and after the re-arm.
TEST_P(EventQueuePropertyTest, DeferredTimerFiresAtItsArmedSeq) {
  Simulator sim(GetParam());
  std::vector<int> fired;
  Timer timer(&sim, [&fired] { fired.push_back(0); });
  timer.ScheduleAt(10);
  sim.ScheduleAt(20, [&fired] { fired.push_back(1); });
  timer.ScheduleAt(20);  // deferred behind the key at 10
  sim.ScheduleAt(20, [&fired] { fired.push_back(2); });
  EXPECT_EQ(sim.RunAll(), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.discarded_keys(), 1u);  // the key at 10
  EXPECT_FALSE(timer.pending());
}

// Four successively earlier arms push four keys into a two-entry stack; the
// two it forgets surface as orphans. Both a plain drain and a later re-arm
// fire exactly once, at the armed deadline.
TEST_P(EventQueuePropertyTest, EarlierRearmsOverflowingTheKeyStackFireOnce) {
  for (const bool rearm_later : {false, true}) {
    Simulator sim(GetParam());
    std::vector<TimeNs> fired_at;
    Timer timer(&sim, [&] { fired_at.push_back(sim.Now()); });
    for (TimeNs at : {300, 200, 100, 50}) {
      timer.ScheduleAt(at);
    }
    if (rearm_later) {
      timer.ScheduleAt(400);  // carried by the keys at 50 and then 100
    }
    EXPECT_EQ(sim.RunAll(), 1u) << rearm_later;
    EXPECT_EQ(fired_at, (std::vector<TimeNs>{rearm_later ? 400 : 50}));
    EXPECT_EQ(sim.discarded_keys(), rearm_later ? 4u : 3u);
    // The stack is consistent afterwards: a fresh arm fires on time.
    timer.ScheduleAfter(7);
    sim.RunAll();
    EXPECT_EQ(fired_at.back(), sim.Now());
    EXPECT_EQ(fired_at.size(), 2u);
  }
}

// A destroyed timer's keys stay queued. Whoever takes its slot next — a
// one-shot or another timer — must treat them as orphans, including when the
// new timer defers its own deadline behind an earlier key.
TEST_P(EventQueuePropertyTest, DestroyedTimerKeysAreOrphansOfTheSlotsNextOccupant) {
  Simulator sim(GetParam());
  std::vector<std::pair<int, TimeNs>> fired;
  auto old_timer = std::make_unique<Timer>(&sim, [&] { fired.push_back({-1, sim.Now()}); });
  old_timer->ScheduleAt(1000);
  old_timer.reset();
  // The one-shot reuses the freed slot (the free list is LIFO).
  sim.ScheduleAt(2000, [&] { fired.push_back({1, sim.Now()}); });

  old_timer = std::make_unique<Timer>(&sim, [&] { fired.push_back({-1, sim.Now()}); });
  old_timer->ScheduleAt(500);
  old_timer.reset();
  Timer next(&sim, [&] { fired.push_back({2, sim.Now()}); });  // same slot again
  next.ScheduleAt(400);
  next.ScheduleAt(700);  // deferred behind its own key at 400
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<std::pair<int, TimeNs>>{{2, 700}, {1, 2000}}));
  EXPECT_EQ(sim.discarded_keys(), 3u);  // 400, then the old keys at 500 and 1000
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Clear() drops every queued key, including those of a disarmed timer; a
// timer that still believed its key was queued would never fire again.
TEST_P(EventQueuePropertyTest, ClearForgetsTheKeysOfDisarmedTimers) {
  Simulator sim(GetParam());
  int fired = 0;
  Timer timer(&sim, [&fired] { ++fired; });
  timer.ScheduleAt(1000);
  timer.Cancel();  // the key at 1000 stays queued
  sim.Clear();
  timer.ScheduleAt(2000);
  EXPECT_EQ(sim.RunAll(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 2000);
}

std::string BackendName(const ::testing::TestParamInfo<QueueBackend>& param) {
  return names::Name(param.param);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventQueuePropertyTest,
                         ::testing::ValuesIn(names::Values<QueueBackend>()), BackendName);

// Differential below the Simulator: drive the raw backends through the
// EventQueue interface with randomized push/pop interleavings (including
// duplicate instants, far-future spikes, and pushes into the already-sorted
// near window) and require the pop streams to be identical key-for-key.
TEST(EventQueueDifferentialTest, HeapAndLadderPopIdenticalStreams) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    EventHeap heap;
    LadderQueue ladder;
    EventQueue* const queues[] = {&heap, &ladder};
    Rng rng(seed);
    uint64_t next_seq = 0;
    TimeNs low_watermark = 0;  // keys are never pushed below the last pop
    for (int step = 0; step < 20000; ++step) {
      const uint64_t op = rng.NextBelow(100);
      if (op < 55 || heap.empty()) {
        TimeNs at = low_watermark;
        const uint64_t shape = rng.NextBelow(10);
        if (shape < 6) {
          at += static_cast<TimeNs>(rng.NextBelow(256));  // near horizon
        } else if (shape < 9) {
          at += static_cast<TimeNs>(rng.NextBelow(1'000'000));  // ~ms ahead
        }  // else: exactly at the watermark (same-instant cluster)
        const EventKey key{at, next_seq++, static_cast<uint32_t>(step)};
        for (EventQueue* q : queues) {
          q->Push(key);
        }
      } else {
        EventKey heap_peek{};
        EventKey ladder_peek{};
        ASSERT_TRUE(heap.PeekTop(&heap_peek));
        ASSERT_TRUE(ladder.PeekTop(&ladder_peek));
        const EventKey a = heap.PopTop();
        const EventKey b = ladder.PopTop();
        ASSERT_EQ(a.at, b.at) << "seed=" << seed << " step=" << step;
        ASSERT_EQ(a.seq, b.seq) << "seed=" << seed << " step=" << step;
        ASSERT_EQ(a.slot, b.slot) << "seed=" << seed << " step=" << step;
        ASSERT_EQ(heap_peek.seq, a.seq);
        ASSERT_EQ(ladder_peek.seq, b.seq);
        low_watermark = a.at;
      }
      ASSERT_EQ(heap.size(), ladder.size());
      ASSERT_EQ(heap.empty(), ladder.empty());
    }
    // Drain both; the tails must agree too.
    EventKey peek{};
    while (heap.PeekTop(&peek)) {
      ASSERT_TRUE(ladder.PeekTop(&peek));
      const EventKey a = heap.PopTop();
      const EventKey b = ladder.PopTop();
      ASSERT_EQ(a.at, b.at) << "seed=" << seed;
      ASSERT_EQ(a.seq, b.seq) << "seed=" << seed;
    }
    ASSERT_TRUE(ladder.empty());
  }
}

// A timer's deferred key is re-pushed under an older seq than keys already
// queued at its instant. Here such keys land in occupied buckets of the
// ladder's 1 ns timer wheel (a dense 64 ns span spreads straight into it),
// in its top, and in coarse buckets that are later re-spread into 1 ns
// buckets; the ladder must pop them in (at, seq) order like the heap.
TEST(EventQueueDifferentialTest, OlderSeqKeysLandInOccupiedOneNanosecondBuckets) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    EventHeap heap;
    LadderQueue ladder;
    EventQueue* const queues[] = {&heap, &ladder};
    Rng rng(seed);
    uint64_t next_seq = 0;
    std::vector<uint64_t> reserved;  // seqs taken but not yet pushed
    auto push = [&](TimeNs at, uint64_t seq) {
      for (EventQueue* q : queues) {
        q->Push(EventKey{at, seq, static_cast<uint32_t>(seq)});
      }
    };
    auto pop_and_compare = [&]() -> EventKey {
      const EventKey a = heap.PopTop();
      const EventKey b = ladder.PopTop();
      EXPECT_EQ(a.at, b.at) << "seed=" << seed;
      EXPECT_EQ(a.seq, b.seq) << "seed=" << seed;
      return a;
    };

    // Two keys per instant over a dense 64 ns span: the first peek spreads
    // it into 1 ns buckets and takes the first one into the bottom.
    for (TimeNs at = 1000; at < 1064; ++at) {
      reserved.push_back(next_seq++);
      push(at, next_seq++);
      push(at, next_seq++);
    }
    EventKey peek{};
    ASSERT_TRUE(ladder.PeekTop(&peek));
    ASSERT_TRUE(heap.PeekTop(&peek));
    // Older seqs into the occupied buckets, in scrambled order.
    for (size_t i = reserved.size(); i-- > 1;) {
      std::swap(reserved[i], reserved[rng.NextBelow(i + 1)]);
    }
    for (const uint64_t seq : reserved) {
      push(1000 + static_cast<TimeNs>(seq / 3), seq);
    }
    reserved.clear();

    // Then a random mix: fresh keys, and reserved (older) seqs pushed later
    // at a time strictly after the last pop, near or far ahead.
    TimeNs low_watermark = 1000;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t op = rng.NextBelow(100);
      if (op < 20) {
        reserved.push_back(next_seq++);
      } else if (op < 35 && !reserved.empty()) {
        const size_t i = rng.NextBelow(reserved.size());
        const uint64_t seq = reserved[i];
        reserved[i] = reserved.back();
        reserved.pop_back();
        const TimeNs ahead = rng.NextBool(0.8) ? static_cast<TimeNs>(rng.NextBelow(64))
                                               : static_cast<TimeNs>(rng.NextBelow(100'000));
        push(low_watermark + 1 + ahead, seq);
      } else if (op < 70 || heap.empty()) {
        const TimeNs ahead = rng.NextBool(0.8) ? static_cast<TimeNs>(rng.NextBelow(64))
                                               : static_cast<TimeNs>(rng.NextBelow(100'000));
        push(low_watermark + 1 + ahead, next_seq++);
      } else {
        low_watermark = pop_and_compare().at;
      }
      ASSERT_EQ(heap.size(), ladder.size());
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    while (heap.PeekTop(&peek)) {
      ASSERT_TRUE(ladder.PeekTop(&peek));
      pop_and_compare();
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    ASSERT_TRUE(ladder.empty());
  }
}

// Clear() must reset the backends to a reusable state (capacity kept,
// nothing replayed).
TEST(EventQueueDifferentialTest, ClearResetsBothBackends) {
  EventHeap heap;
  LadderQueue ladder;
  for (EventQueue* q : std::initializer_list<EventQueue*>{&heap, &ladder}) {
    for (uint64_t i = 0; i < 1000; ++i) {
      q->Push(EventKey{static_cast<TimeNs>(i * 7 % 113), i, 0});
    }
    q->Clear();
    EXPECT_TRUE(q->empty());
    EXPECT_EQ(q->size(), 0u);
    EventKey out{};
    EXPECT_FALSE(q->PeekTop(&out));
    // Refill after Clear and pop in order.
    q->Push(EventKey{10, 1, 0});
    q->Push(EventKey{5, 2, 0});
    ASSERT_TRUE(q->PeekTop(&out));
    EXPECT_EQ(out.at, 5);
    EXPECT_EQ(q->PopTop().seq, 2u);
    EXPECT_EQ(q->PopTop().seq, 1u);
    EXPECT_TRUE(q->empty());
  }
}

}  // namespace
}  // namespace draconis::sim
