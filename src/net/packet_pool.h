// Parking for packets in flight inside a scheduled event.
//
// A packet waiting for its next event (fabric delivery, pipeline egress,
// loopback re-entry) is parked in a PacketPool and the event captures only
// its owner's `this` and the slot number. That capture is 16 trivially
// copyable bytes, which std::function keeps in its own small buffer, so
// scheduling it allocates nothing; capturing the 144-byte Packet itself
// boxed every such closure on the heap. Freed slots are reused LIFO, so a
// steady flow of packets stops growing the pool after warm-up.

#ifndef DRACONIS_NET_PACKET_POOL_H_
#define DRACONIS_NET_PACKET_POOL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/packet.h"

namespace draconis::net {

class PacketPool {
 public:
  // Moves `pkt` into a free slot and returns the slot number.
  uint32_t Park(Packet&& pkt) {
    if (free_.empty()) {
      slots_.push_back(std::move(pkt));
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(pkt);
    return slot;
  }

  // The parked packet, left in place. The reference is invalidated by the
  // next Park.
  const Packet& Peek(uint32_t slot) const {
    DRACONIS_CHECK(slot < slots_.size());
    return slots_[slot];
  }

  // Moves the packet out and frees its slot.
  Packet Take(uint32_t slot) {
    DRACONIS_CHECK(slot < slots_.size());
    free_.push_back(slot);
    return std::move(slots_[slot]);
  }

 private:
  std::vector<Packet> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace draconis::net

#endif  // DRACONIS_NET_PACKET_POOL_H_
