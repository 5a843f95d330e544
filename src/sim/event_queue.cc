#include "sim/event_queue.h"

#include "common/check.h"

namespace coldstart::sim {

void EventQueue::SiftUp(size_t i, const Key& key) {
  // Parents move down through the hole until the key fits.
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(key, heap_[parent])) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, key);
}

void EventQueue::SiftDown(size_t i, const Key& key) {
  // The smallest child moves up through the hole until the key fits.
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    if (first + 4 <= n) {
      // A full sibling group: a branch-free tournament.
      const size_t lo = first + Before(heap_[first + 1], heap_[first]);
      const size_t hi = first + 2 + Before(heap_[first + 3], heap_[first + 2]);
      best = Before(heap_[hi], heap_[lo]) ? hi : lo;
    } else {
      for (size_t c = first + 1; c < n; ++c) {
        if (Before(heap_[c], heap_[best])) {
          best = c;
        }
      }
    }
    if (!Before(heap_[best], key)) {
      break;
    }
    Place(i, heap_[best]);
    i = best;
  }
  Place(i, key);
}

EventQueue::Entry EventQueue::Push(SimTime t, uint64_t seq, uint64_t token) {
  Entry entry;
  if (free_.empty()) {
    COLDSTART_CHECK_LT(slots_.size(), size_t{UINT32_MAX});
    entry = static_cast<Entry>(slots_.size());
    slots_.emplace_back();
  } else {
    entry = free_.back();
    free_.pop_back();
  }
  slots_[entry].token = token;
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Key{t, seq, entry});
  return entry;
}

size_t EventQueue::PositionOf(Entry entry) const {
  COLDSTART_CHECK_LT(entry, slots_.size());
  const size_t i = slots_[entry].position;
  COLDSTART_CHECK(i < heap_.size() && heap_[i].entry == entry);  // Still queued.
  return i;
}

void EventQueue::Rekey(Entry entry, SimTime t, uint64_t seq) {
  const size_t i = PositionOf(entry);
  const Key key{t, seq, entry};
  if (Before(key, heap_[i])) {
    SiftUp(i, key);
  } else {
    SiftDown(i, key);
  }
}

void EventQueue::KeyOf(Entry entry, SimTime* time, uint64_t* seq) const {
  const size_t i = PositionOf(entry);
  *time = heap_[i].time;
  *seq = heap_[i].seq;
}

uint64_t EventQueue::Pop() {
  COLDSTART_CHECK(!heap_.empty());
  const Entry top = heap_.front().entry;
  free_.push_back(top);
  // Sift the last key down from the root.
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
  return slots_[top].token;
}

}  // namespace coldstart::sim
