#include "sim/event_queue.h"

#include "common/check.h"

namespace coldstart::sim {

void EventQueue::Push(SimTime t, uint64_t seq, uint64_t token) {
  // Sift up through a hole: parents move down until the key fits.
  const Key key{t, seq, token};
  size_t i = keys_.size();
  keys_.push_back(key);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(key, keys_[parent])) {
      break;
    }
    keys_[i] = keys_[parent];
    i = parent;
  }
  keys_[i] = key;
}

uint64_t EventQueue::Pop() {
  COLDSTART_CHECK(!keys_.empty());
  const uint64_t token = keys_.front().token;
  // Sift the last key down from the root.
  const Key last = keys_.back();
  keys_.pop_back();
  const size_t n = keys_.size();
  if (n > 0) {
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      size_t best = first;
      if (first + 4 <= n) {
        // A full sibling group: a branch-free tournament.
        const size_t lo = first + Before(keys_[first + 1], keys_[first]);
        const size_t hi = first + 2 + Before(keys_[first + 3], keys_[first + 2]);
        best = Before(keys_[hi], keys_[lo]) ? hi : lo;
      } else {
        for (size_t c = first + 1; c < n; ++c) {
          if (Before(keys_[c], keys_[best])) {
            best = c;
          }
        }
      }
      if (!Before(keys_[best], last)) {
        break;
      }
      keys_[i] = keys_[best];
      i = best;
    }
    keys_[i] = last;
  }
  return token;
}

}  // namespace coldstart::sim
