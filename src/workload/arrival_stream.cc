#include "workload/arrival_stream.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "common/check.h"

namespace coldstart::workload {

void SortDayChunk(ArrivalChunk& chunk) {
  constexpr size_t kMinutes = static_cast<size_t>(kDay / kMinute);
  std::vector<ArrivalEvent>& events = chunk.events;
  COLDSTART_CHECK_LE(events.size(), std::numeric_limits<uint32_t>::max());
  const SimTime day_start = chunk.day * kDay;
  const auto minute_of = [day_start](const ArrivalEvent& e) {
    // A time before the day wraps to a huge minute and fails the CHECK below.
    return static_cast<uint64_t>(e.time - day_start) / static_cast<uint64_t>(kMinute);
  };

  // begin[m] is where minute m's events start once partitioned (begin[kMinutes]
  // is the chunk size); next[m] is minute m's next unfilled position.
  std::array<uint32_t, kMinutes + 1> begin{};
  for (const ArrivalEvent& e : events) {
    const uint64_t m = minute_of(e);
    COLDSTART_CHECK_LT(m, kMinutes);
    ++begin[m + 1];
  }
  for (size_t m = 0; m < kMinutes; ++m) {
    begin[m + 1] += begin[m];
  }
  std::array<uint32_t, kMinutes + 1> next = begin;
  for (size_t m = 0; m < kMinutes; ++m) {
    // Each event taken from minute m's range is swapped into the next free
    // position of its own minute until one belonging to m comes back.
    while (next[m] < begin[m + 1]) {
      ArrivalEvent e = events[next[m]];
      for (uint64_t d = minute_of(e); d != m; d = minute_of(e)) {
        std::swap(e, events[next[d]++]);
      }
      events[next[m]++] = e;
    }
  }
  for (size_t m = 0; m < kMinutes; ++m) {
    std::sort(events.begin() + begin[m], events.begin() + begin[m + 1],
              [](const ArrivalEvent& a, const ArrivalEvent& b) {
                return ArrivalOrderLess(a, b);
              });
  }
}

MaterializedArrivalStream::MaterializedArrivalStream(std::vector<ArrivalEvent> events,
                                                     int64_t num_days)
    : events_(std::move(events)), num_days_(num_days) {
  COLDSTART_CHECK_GE(num_days_, 0);
}

bool MaterializedArrivalStream::NextChunk(ArrivalChunk* chunk) {
  if (next_day_ >= num_days_) {
    return false;
  }
  const int64_t day = next_day_++;
  chunk->day = day;
  chunk->events.clear();
  const SimTime day_end = (day + 1) * kDay;
  // events_ is sorted by time, so each day is one contiguous span.
  while (next_ < events_.size() && events_[next_].time < day_end) {
    COLDSTART_CHECK_GE(events_[next_].time, day * kDay);  // Sorted-input contract.
    chunk->events.push_back(events_[next_]);
    ++next_;
  }
  return true;
}

// events_/num_days_ are construction arguments; only the cursor moves.
template <class Ar, class Self>
void MaterializedArrivalStream::Layout(Ar& a, Self& self) {
  a.U64(self.next_);
  a.I64(self.next_day_);
  COLDSTART_CHECK_LE(self.next_, self.events_.size());
  COLDSTART_CHECK_LE(self.next_day_, self.num_days_);
}

bool MaterializedArrivalStream::SaveState(ByteWriter& w) const {
  Layout(w, *this);
  return true;
}

bool MaterializedArrivalStream::RestoreState(ByteReader& r) {
  Layout(r, *this);
  return true;
}

std::vector<ArrivalEvent> DrainArrivalStream(ArrivalStream& stream) {
  std::vector<ArrivalEvent> out;
  ArrivalChunk chunk;
  while (stream.NextChunk(&chunk)) {
    out.insert(out.end(), chunk.events.begin(), chunk.events.end());
  }
  return out;
}

}  // namespace coldstart::workload
