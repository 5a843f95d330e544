#include "sim/simulator.h"

namespace coldstart::sim {

uint64_t Simulator::RunUntil(SimTime until) {
  uint64_t processed = 0;
  for (;;) {
    SimTime source_time = 0;
    uint64_t source_seq = 0;
    const bool have_source =
        source_ != nullptr && source_->Head(&source_time, &source_seq);
    SimTime queue_time = 0;
    uint64_t queue_seq = 0;
    const bool have_queued = queue_.Peek(&queue_time, &queue_seq);
    // Ties break on the reserved seq.
    const bool source_first =
        have_source && (!have_queued || source_time < queue_time ||
                        (source_time == queue_time && source_seq < queue_seq));
    if (!source_first && !have_queued) {
      break;
    }
    const SimTime next = source_first ? source_time : queue_time;
    if (next > until) {
      break;
    }
    now_ = next;
    if (source_first) {
      current_seq_ = source_seq;
      source_->RunHead();
    } else {
      current_seq_ = queue_seq;
      target_->Fire(queue_.Pop());
    }
    ++processed;
    ++events_processed_;
  }
  current_seq_ = kNoEvent;
  // The clock advances to the requested horizon even when the queue drained early.
  if (now_ < until) {
    now_ = until;
  }
  return processed;
}

}  // namespace coldstart::sim
