#include "reference.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace draconis::simbench {

namespace {

constexpr size_t kActors = 16384;
constexpr uint64_t kEvents = 400'000;

struct Event {
  int64_t at;
  uint32_t actor;
  bool operator>(const Event& other) const { return at > other.at; }
};

// Per-actor state, touched at random like executor and client objects.
struct Actor {
  uint64_t words[8] = {};
};

// Bigger than std::function's inline buffer, like a packet-carrying
// delivery closure, so every closure is heap-allocated.
struct Payload {
  uint64_t words[18] = {};
};

}  // namespace

double TimeReferenceLoop() {
  std::vector<Actor> actors(kActors);
  std::vector<std::function<void()>> closures(kActors);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_set<uint64_t> seen;
  uint64_t x = 88172645463325252ULL;  // xorshift64: fixed, so every call does the same work
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint32_t a = 0; a < kActors; ++a) {
    queue.push({static_cast<int64_t>(next() % 10000), a});
  }

  uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t e = 0; e < kEvents; ++e) {
    const Event event = queue.top();
    queue.pop();
    Actor& actor = actors[event.actor];
    actor.words[e & 7] += static_cast<uint64_t>(event.at);
    sink += actor.words[(e + 3) & 7];
    Payload payload;
    payload.words[0] = e;
    closures[event.actor] = [payload, &sink] { sink += payload.words[0]; };
    if ((e & 15) == 0) {
      closures[event.actor]();
      seen.insert(next());
    }
    queue.push({event.at + 1000 + static_cast<int64_t>(next() % 3000), event.actor});
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Keep the loop's result observable so it cannot be optimized away.
  volatile uint64_t keep = sink + seen.size();
  (void)keep;
  return seconds;
}

}  // namespace draconis::simbench
