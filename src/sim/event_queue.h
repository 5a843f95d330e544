// The simulator's event queue: a 4-ary min-heap of (time, seq, token) keys.
//
// Events are ordered by the deterministic (time, insertion sequence) key. The
// heap holds only 24-byte POD keys, so every comparison and sift touches a flat
// array. The queue stores no payload: the token is an opaque word the owner of
// the event resolves itself (the platform packs a handle into its pending-event
// table), so popping returns the token and the caller dispatches it.
//
// Pushes carry no ordering precondition: any (time, seq) key, in any order, pops
// in key order. That is what checkpoint restore relies on.
#ifndef COLDSTART_SIM_EVENT_QUEUE_H_
#define COLDSTART_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"

namespace coldstart::sim {

class EventQueue {
 public:
  size_t size() const { return keys_.size(); }

  // `seq` must be unique among queued events.
  void Push(SimTime t, uint64_t seq, uint64_t token);

  // Fills the (time, seq) key of the earliest event; false when empty.
  bool Peek(SimTime* time, uint64_t* seq) const {
    if (keys_.empty()) {
      return false;
    }
    *time = keys_.front().time;
    *seq = keys_.front().seq;
    return true;
  }

  // Removes the earliest event and returns its token. Must not be empty.
  uint64_t Pop();

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    uint64_t token;
  };

  // (time, seq) order as one branch-free 128-bit comparison. Flipping the sign
  // bit maps signed time order onto unsigned order.
  static unsigned __int128 Order(const Key& k) {
    const uint64_t biased_time = static_cast<uint64_t>(k.time) ^ (uint64_t{1} << 63);
    return (static_cast<unsigned __int128>(biased_time) << 64) | k.seq;
  }
  static bool Before(const Key& a, const Key& b) { return Order(a) < Order(b); }

  std::vector<Key> keys_;  // 4-ary min-heap by (time, seq); children of i: 4i+1..4i+4.
};

}  // namespace coldstart::sim

#endif  // COLDSTART_SIM_EVENT_QUEUE_H_
