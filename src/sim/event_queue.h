// The simulator's event queue: a 4-ary min-heap of ordering keys over a stable
// handler slab.
//
// Events are ordered by the deterministic (time, insertion sequence) key. The
// heap holds only 24-byte POD keys, so every comparison and sift touches a flat
// array; handlers live in a chunked slab whose addresses never move. A handler
// is moved in once on Push and runs in place on RunNext. Its slot is destroyed
// and recycled only after it returns, so a running handler may schedule any
// number of events (including at its own timestamp) without relocating itself.
//
// Pushes carry no ordering precondition: any (time, seq) key, in any order, pops
// in key order. That is what checkpoint restore relies on.
#ifndef COLDSTART_SIM_EVENT_QUEUE_H_
#define COLDSTART_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_handler.h"
#include "common/sim_time.h"

namespace coldstart::sim {

class EventQueue {
 public:
  // Handlers per slab chunk; the slab grows a chunk (1 KiB) at a time. Queues
  // stay small (about 100 pending events in a paper-month run), so small
  // chunks track the peak closely and leave few long-lived blocks in the
  // allocator's heap.
  static constexpr int kChunkBits = 4;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;

  size_t size() const { return keys_.size(); }

  // `seq` must be unique among queued events.
  void Push(SimTime t, uint64_t seq, InlineHandler&& fn);

  // Fills the (time, seq) key of the earliest event; false when empty.
  bool Peek(SimTime* time, uint64_t* seq) const {
    if (keys_.empty()) {
      return false;
    }
    *time = keys_.front().time;
    *seq = keys_.front().seq;
    return true;
  }

  // Removes the earliest event and runs its handler in place. Must not be empty.
  void RunNext();

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;  // Index of the handler in the slab.
  };
  struct Chunk {
    InlineHandler slots[kChunkSize];
  };

  // (time, seq) order as one branch-free 128-bit comparison. Flipping the sign
  // bit maps signed time order onto unsigned order.
  static unsigned __int128 Order(const Key& k) {
    const uint64_t biased_time = static_cast<uint64_t>(k.time) ^ (uint64_t{1} << 63);
    return (static_cast<unsigned __int128>(biased_time) << 64) | k.seq;
  }
  static bool Before(const Key& a, const Key& b) { return Order(a) < Order(b); }
  InlineHandler& Slot(uint32_t slot) {
    return chunks_[slot >> kChunkBits]->slots[slot & (kChunkSize - 1)];
  }

  std::vector<Key> keys_;  // 4-ary min-heap by (time, seq); children of i: 4i+1..4i+4.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<uint32_t> free_slots_;  // LIFO, so the hottest slots are reused first.
};

}  // namespace coldstart::sim

#endif  // COLDSTART_SIM_EVENT_QUEUE_H_
