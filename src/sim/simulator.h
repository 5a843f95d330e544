// Discrete-event simulation core.
//
// A single-threaded event loop with a deterministic total order: events fire by
// (time, insertion sequence), so two events at the same timestamp run in the order
// they were scheduled. The queue (event_queue.h) is a 4-ary heap of (time, seq)
// keys and holds nothing else: the simulator hands each popped token to the one
// attached EventTarget, which owns the event's payload. The queue has no cancel:
// every queued event fires. An owner that wants an event at another time
// re-keys it in place (RescheduleAt), under a fresh seq, as if it had scheduled
// it anew.
//
// Besides the queue, the loop can merge one attached EventSource: a pull-based,
// time-ordered stream whose entries carry (time, seq) keys but are never
// materialized as queue entries. The platform's arrival injector uses this to
// stream a month of arrivals with one live cursor instead of one queued key each.
#ifndef COLDSTART_SIM_SIMULATOR_H_
#define COLDSTART_SIM_SIMULATOR_H_

#include <cstdint>

#include "common/check.h"
#include "common/sim_time.h"
#include "sim/event_queue.h"

namespace coldstart::sim {

// The owner of every queued event: Fire runs the event a popped token names.
class EventTarget {
 public:
  virtual ~EventTarget() = default;
  virtual void Fire(uint64_t token) = 0;
};

// A pull-based stream of time-ordered events merged into the run loop. Head()
// exposes the next entry's (time, seq) key; the simulator runs whichever of the
// queue minimum and the source head orders first. Sequence numbers come from
// Simulator::ReserveSeqRange so stream entries interleave with queued events
// exactly as if they had been scheduled individually.
class EventSource {
 public:
  virtual ~EventSource() = default;
  // Returns true and fills (time, seq) when a head event is available.
  virtual bool Head(SimTime* time, uint64_t* seq) = 0;
  // Runs and consumes the head event.
  virtual void RunHead() = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }
  // Queued events only; an attached EventSource's pending entries are not counted.
  size_t pending_events() const { return queue_.size(); }

  // The seq of the event running now: the popped key's, or for an EventSource
  // head the head's. Between RunUntil calls it is kNoEvent, so every key at
  // the clock orders before it. Keys kept outside the queue (the platform's
  // cold-start ready keys) compare against (now(), current_seq()) to tell
  // whether they would have fired by now.
  static constexpr uint64_t kNoEvent = UINT64_MAX;
  uint64_t current_seq() const { return current_seq_; }

  // Queues `token` for the attached target at absolute time `t` (>= now) and
  // returns the sequence number it consumed. When `entry` is not null it
  // receives the event's queue entry, which RescheduleAt takes.
  uint64_t ScheduleAt(SimTime t, uint64_t token, EventQueue::Entry* entry = nullptr) {
    COLDSTART_CHECK_GE(t, now_);
    COLDSTART_CHECK(target_ != nullptr);
    const EventQueue::Entry e = queue_.Push(t, next_seq_, token);
    if (entry != nullptr) {
      *entry = e;
    }
    return next_seq_++;
  }

  // Moves the queued event `entry` to absolute time `t` (>= now, earlier or
  // later than its current time) and returns the fresh sequence number it
  // consumed: it orders exactly as if ScheduleAt had queued it now, and it
  // fires once, at its new key.
  uint64_t RescheduleAt(EventQueue::Entry entry, SimTime t) {
    COLDSTART_CHECK_GE(t, now_);
    queue_.Rekey(entry, t, next_seq_);
    return next_seq_++;
  }

  // Reserves `count` consecutive sequence numbers and returns the first, exactly
  // as if `count` events had been scheduled now. EventSource implementations use
  // this to give stream entries the same total-order keys that individually
  // scheduled events would have received.
  uint64_t ReserveSeqRange(uint64_t count) {
    const uint64_t base = next_seq_;
    next_seq_ += count;
    return base;
  }

  // Credits `n` extra processed events. An EventSource whose RunHead drains a
  // run of entries in one dispatch calls this with (run length - 1) so
  // events_processed matches what per-entry dispatch would have counted.
  void AddProcessedEvents(uint64_t n) { events_processed_ += n; }

  // Attaches (or, with nullptr, detaches) the target that fires queued tokens.
  // One at a time.
  void AttachTarget(EventTarget* target) {
    COLDSTART_CHECK(target == nullptr || target_ == nullptr);
    target_ = target;
  }
  // Attaches (or, with nullptr, detaches) the merged event source. One at a time.
  void AttachSource(EventSource* source) {
    COLDSTART_CHECK(source == nullptr || source_ == nullptr);
    source_ = source;
  }

  // --- Checkpoint support (src/checkpoint/) ---------------------------------
  // The next sequence number that ScheduleAt would consume. Checkpoint writers
  // record it (and the seq of every pending event) so a restored run
  // reproduces the original (time, seq) total order exactly.
  uint64_t next_seq() const { return next_seq_; }

  // The (time, seq) key the queued event `entry` holds now: the key a
  // checkpoint writer records for it.
  void QueuedKey(EventQueue::Entry entry, SimTime* time, uint64_t* seq) const {
    queue_.KeyOf(entry, time, seq);
  }

  // Restores the clock and counters of a checkpointed run. Must be called on a
  // fresh simulator before any RestoreEvent.
  void RestoreClock(SimTime now, uint64_t next_seq, uint64_t events_processed) {
    COLDSTART_CHECK_EQ(queue_.size(), 0u);
    COLDSTART_CHECK_GE(now, now_);
    COLDSTART_CHECK_GE(next_seq, next_seq_);
    now_ = now;
    next_seq_ = next_seq;
    events_processed_ = events_processed;
  }

  // Re-queues a checkpointed pending event under its *original* (time, seq)
  // key, in any order, and returns its queue entry. Unlike ScheduleAt this does
  // not consume a sequence number — the counter was restored wholesale by
  // RestoreClock, which must run first.
  EventQueue::Entry RestoreEvent(SimTime t, uint64_t seq, uint64_t token) {
    COLDSTART_CHECK_GE(t, now_);
    COLDSTART_CHECK_LT(seq, next_seq_);
    COLDSTART_CHECK(target_ != nullptr);
    return queue_.Push(t, seq, token);
  }
  // ---------------------------------------------------------------------------

  // Runs until the queue empties or the clock would pass `until`, then advances
  // the clock to `until`. Events scheduled exactly at `until` do fire. Returns
  // the number of events processed by this call.
  uint64_t RunUntil(SimTime until);

 private:
  EventQueue queue_;
  EventTarget* target_ = nullptr;  // Not owned; set while events are queued.
  EventSource* source_ = nullptr;  // Not owned; may be null.
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t current_seq_ = kNoEvent;
  uint64_t events_processed_ = 0;
};

}  // namespace coldstart::sim

#endif  // COLDSTART_SIM_SIMULATOR_H_
