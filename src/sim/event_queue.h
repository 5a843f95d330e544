// The simulator's event queue: a 4-ary min-heap of (time, seq) keys.
//
// Events are ordered by the deterministic (time, insertion sequence) key. The
// heap holds only 24-byte POD keys, so every comparison and sift touches a flat
// array. The queue stores no payload: each queued event carries an opaque token
// word its owner resolves itself (the platform packs a handle into its
// pending-event table), so popping returns the token and the caller dispatches
// it.
//
// Every queued event has an entry, a dense index that names it from its Push
// until it pops. The entry holds the token and the event's heap position, so
// Rekey moves a queued event to a new key in place: its owner never cancels an
// event, it re-keys it, and nothing that pops is a dead key. Tokens stay opaque:
// nothing is indexed by them.
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
  // Names a queued event from its Push until it pops; popped entries are reused.
  using Entry = uint32_t;

  size_t size() const { return heap_.size(); }

  // `seq` must be unique among queued events. Returns the event's entry.
  Entry Push(SimTime t, uint64_t seq, uint64_t token);

  // Moves the queued event `entry` to the key (t, seq), earlier or later.
  // `seq` must be unique among queued events.
  void Rekey(Entry entry, SimTime t, uint64_t seq);

  // The (time, seq) key of the queued event `entry`.
  void KeyOf(Entry entry, SimTime* time, uint64_t* seq) const;

  // Fills the (time, seq) key of the earliest event; false when empty.
  bool Peek(SimTime* time, uint64_t* seq) const {
    if (heap_.empty()) {
      return false;
    }
    *time = heap_.front().time;
    *seq = heap_.front().seq;
    return true;
  }

  // Removes the earliest event and returns its token. Must not be empty.
  uint64_t Pop();

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    Entry entry;
  };
  struct Slot {
    uint64_t token;
    uint32_t position;  // Index of the entry's key in heap_.
  };

  // (time, seq) order as one branch-free 128-bit comparison. Flipping the sign
  // bit maps signed time order onto unsigned order.
  static unsigned __int128 Order(const Key& k) {
    const uint64_t biased_time = static_cast<uint64_t>(k.time) ^ (uint64_t{1} << 63);
    return (static_cast<unsigned __int128>(biased_time) << 64) | k.seq;
  }
  static bool Before(const Key& a, const Key& b) { return Order(a) < Order(b); }

  // The heap index of the queued event `entry`.
  size_t PositionOf(Entry entry) const;
  // Stores `key` at heap index `i` and records the position in its slot.
  void Place(size_t i, const Key& key) {
    heap_[i] = key;
    slots_[key.entry].position = static_cast<uint32_t>(i);
  }
  // Sift `key` from the hole at `i` towards the root / the leaves.
  void SiftUp(size_t i, const Key& key);
  void SiftDown(size_t i, const Key& key);

  std::vector<Key> heap_;     // 4-ary min-heap by (time, seq); children of i: 4i+1..4i+4.
  std::vector<Slot> slots_;   // By entry.
  std::vector<Entry> free_;   // Entries not queued, reused LIFO.
};

}  // namespace coldstart::sim

#endif  // COLDSTART_SIM_EVENT_QUEUE_H_
