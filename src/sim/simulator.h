// Discrete-event simulation core.
//
// A single-threaded event loop with a deterministic total order: events fire by
// (time, insertion sequence), so two events at the same timestamp run in the order
// they were scheduled. The queue is a 4-ary key heap over a stable handler slab
// (event_queue.h) and handlers are small-buffer-optimized InlineHandlers:
// scheduling a handler whose captures fit 48 bytes (every call site in src/sim and
// src/platform) performs no heap allocation. The queue has no cancel: the
// platform queues closures that hold only a slab handle and cancels by freeing
// the entry, so the closure resolves to nothing (its pending-event table).
//
// Besides the queue, the loop can merge one attached EventSource: a pull-based,
// time-ordered stream whose entries carry (time, seq) keys but are never
// materialized as queue entries. The platform's arrival injector uses this to
// stream a month of arrivals with one live cursor instead of one closure each.
#ifndef COLDSTART_SIM_SIMULATOR_H_
#define COLDSTART_SIM_SIMULATOR_H_

#include "common/check.h"
#include "common/inline_handler.h"
#include "common/sim_time.h"
#include "sim/event_queue.h"

namespace coldstart::sim {

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
  using Handler = InlineHandler;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }
  // Queued events only; an attached EventSource's pending entries are not counted.
  size_t pending_events() const { return queue_.size(); }

  // Schedules `fn` at absolute time `t` (>= now).
  void ScheduleAt(SimTime t, Handler fn) {
    COLDSTART_CHECK_GE(t, now_);
    queue_.Push(t, next_seq_++, std::move(fn));
  }
  // Schedules `fn` after `dt` (>= 0) from now.
  void ScheduleAfter(SimDuration dt, Handler fn) {
    COLDSTART_CHECK_GE(dt, 0);
    ScheduleAt(now_ + dt, std::move(fn));
  }

  // Reserves `count` consecutive sequence numbers and returns the first, exactly
  // as if `count` events had been scheduled now. EventSource implementations use
  // this to give stream entries the same total-order keys that individually
  // scheduled closures would have received.
  uint64_t ReserveSeqRange(uint64_t count) {
    const uint64_t base = next_seq_;
    next_seq_ += count;
    return base;
  }

  // Credits `n` extra processed events. An EventSource whose RunHead drains a
  // run of entries in one dispatch calls this with (run length - 1) so
  // events_processed matches what per-entry dispatch would have counted.
  void AddProcessedEvents(uint64_t n) { events_processed_ += n; }

  // Attaches (or, with nullptr, detaches) the merged event source. One at a time.
  void AttachSource(EventSource* source) {
    COLDSTART_CHECK(source == nullptr || source_ == nullptr);
    source_ = source;
  }

  // --- Checkpoint support (src/checkpoint/) ---------------------------------
  // The next sequence number that ScheduleAt would consume. Checkpoint writers
  // record it (and bookkeep the seq of every pending event) so a restored run
  // reproduces the original (time, seq) total order exactly.
  uint64_t next_seq() const { return next_seq_; }

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
  // key, in any order. Unlike ScheduleAt this does not consume a sequence
  // number — the counter was restored wholesale by RestoreClock, which must run
  // first.
  void RestoreEvent(SimTime t, uint64_t seq, Handler fn) {
    COLDSTART_CHECK_GE(t, now_);
    COLDSTART_CHECK_LT(seq, next_seq_);
    queue_.Push(t, seq, std::move(fn));
  }
  // ---------------------------------------------------------------------------

  // Runs until the queue empties or the clock would pass `until`. Events scheduled
  // exactly at `until` do fire. Returns the number of events processed by this call.
  uint64_t RunUntil(SimTime until);

  // Runs until the queue is empty.
  uint64_t RunToCompletion();

  // Requests that the current RunUntil/RunToCompletion stop after the in-flight
  // handler returns (pending events remain queued; the clock stays at the last
  // processed event).
  void Stop() { stop_requested_ = true; }

 private:
  uint64_t RunLoop(SimTime until);

  EventQueue queue_;
  EventSource* source_ = nullptr;  // Not owned; may be null.
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace coldstart::sim

#endif  // COLDSTART_SIM_SIMULATOR_H_
