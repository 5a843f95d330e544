// Tests for the discrete-event simulator core: (time, seq) ordering of the event
// queue, handler lifetime in its slab, clock semantics, and the merged
// EventSource stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace coldstart::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NowAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.ScheduleAt(42, [&] { seen = sim.now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, HandlersCanScheduleMore) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      sim.ScheduleAfter(10, chain);
    }
  };
  sim.ScheduleAt(0, chain);
  sim.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(30, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(20), 2u);  // Events at exactly `until` fire.
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100);  // Clock advances to the requested horizon.
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(2, [&] { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, SchedulingInPastDies) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.RunToCompletion();
  EXPECT_DEATH(sim.ScheduleAt(50, [] {}), "CHECK");
}

TEST(SimulatorTest, EventCountAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAt(i, [] {});
  }
  sim.RunToCompletion();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// --- Queue order and handler lifetime. ---

TEST(SimulatorTest, StoppedRunLeavesClockAtLastEvent) {
  Simulator sim;
  sim.ScheduleAt(10, [&] { sim.Stop(); });
  sim.RunUntil(1000);
  // The queue is empty and Stop() was honored: the clock must not jump to 1000.
  EXPECT_EQ(sim.now(), 10);
  // A fresh run without Stop() does advance to the horizon.
  EXPECT_EQ(sim.RunUntil(1000), 0u);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorTest, SameTimeFifoAcrossPartialRuns) {
  // Events at one far timestamp are scheduled from ever closer clocks; FIFO by
  // insertion must hold across the partial runs in between.
  Simulator sim;
  const SimTime t = 10 * kMinute;
  std::vector<int> order;
  sim.ScheduleAt(t, [&] { order.push_back(0); });
  sim.RunUntil(8 * kMinute);
  sim.ScheduleAt(t, [&] { order.push_back(1); });
  sim.RunUntil(t - 100 * kMillisecond);
  sim.ScheduleAt(t, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, MixedHorizonsFireInTimeOrder) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  const std::vector<SimTime> times = {
      3 * kHour,  500,  kDay, 2 * kMinute, 90 * kSecond, 1,
      5 * kHour,  kDay, 999,  kMinute,     kSecond,      kHour + 1,
  };
  for (const SimTime t : times) {
    sim.ScheduleAt(t, [&fire_times, &sim] { fire_times.push_back(sim.now()); });
  }
  sim.RunToCompletion();
  std::vector<SimTime> expected = times;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fire_times, expected);
}

TEST(SimulatorTest, ScheduleBeforePeekedEventPreservesOrder) {
  // RunUntil peeks at a far event and stops short of it; a later schedule into
  // the gap must still fire first.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(kHour, [&] { order.push_back(1); });  // Far event, peeked at.
  sim.RunUntil(1000);
  EXPECT_EQ(sim.now(), 1000);
  sim.ScheduleAt(2000, [&] { order.push_back(0); });  // Into the gap.
  sim.ScheduleAt(2000, [&] { order.push_back(10); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1}));
  EXPECT_EQ(sim.now(), kHour);
}

TEST(SimulatorTest, RandomScheduleMatchesStableSortOrder) {
  // The queue must reproduce exactly the (time, insertion seq) total order of a
  // stable sort.
  Simulator sim;
  Rng rng(2024);
  std::vector<std::pair<SimTime, int>> scheduled;
  std::vector<int> fired;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    // Spread over ~6 minutes, so ties are rare and near and far events mix.
    const SimTime t = static_cast<SimTime>(rng.NextBounded(6 * kMinute));
    scheduled.push_back({t, i});
    sim.ScheduleAt(t, [&fired, i] { fired.push_back(i); });
  }
  sim.RunToCompletion();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(fired.size(), scheduled.size());
  for (size_t i = 0; i < scheduled.size(); ++i) {
    EXPECT_EQ(fired[i], scheduled[i].second) << "position " << i;
  }
}

TEST(SimulatorTest, HandlersSchedulingAtNowRunThisSweep) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(100, [&] {
    order.push_back(0);
    sim.ScheduleAt(100, [&] { order.push_back(2); });  // Same timestamp, later seq.
  });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, RestoredEventsPopInTimeSeqOrder) {
  // Checkpoint restore re-queues events under their original keys in whatever
  // order the census walks them: seqs arrive out of order, also at equal times.
  Simulator sim;
  sim.RestoreClock(1000, 100, 0);
  std::vector<uint64_t> fired;
  const std::vector<std::pair<SimTime, uint64_t>> keys = {
      {5000, 42}, {2000, 7},  {5000, 3},  {2000, 99}, {5000, 17},
      {1000, 64}, {2000, 1},  {9000, 0},  {1000, 12}, {5000, 80},
  };
  for (const auto& [t, seq] : keys) {
    sim.RestoreEvent(t, seq, [&fired, seq = seq] { fired.push_back(seq); });
  }
  // One fresh event (seq 100) ties the restored ones at 2000 and fires last.
  sim.ScheduleAt(2000, [&fired] { fired.push_back(100); });
  sim.RunToCompletion();
  EXPECT_EQ(fired, (std::vector<uint64_t>{12, 64, 1, 7, 99, 100, 3, 17, 42, 80, 0}));
}

TEST(SimulatorTest, HandlerSchedulingMoreThanAChunkRunsIntact) {
  // A running handler lives in its slab slot while it schedules enough events
  // to grow the slab by more than a chunk, plus one at its own timestamp. Its
  // captures must stay intact and every event must fire in (time, seq) order.
  Simulator sim;
  const int n = static_cast<int>(EventQueue::kChunkSize) + 37;
  std::vector<int> order;
  auto token = std::make_shared<int>(7);
  sim.ScheduleAt(50, [&sim, &order, n, token] {
    for (int i = 0; i < n; ++i) {
      sim.ScheduleAt(100 + (n - i), [&order, i] { order.push_back(i); });
    }
    sim.ScheduleAt(50, [&order] { order.push_back(-1); });
    // Read the captures after the slab grew under this handler.
    order.push_back(*token + n);
  });
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), static_cast<size_t>(n) + 2);
  EXPECT_EQ(order[0], 7 + n);
  EXPECT_EQ(order[1], -1);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i) + 2], n - 1 - i) << "position " << i;
  }
}

TEST(SimulatorTest, HandlerCapturesReleasedAfterRunAndSlotReused) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  const void* first_slot = nullptr;
  const void* second_slot = nullptr;
  sim.ScheduleAt(10, [&first_slot, token] { first_slot = &token; });
  EXPECT_EQ(token.use_count(), 2);
  sim.RunUntil(10);
  // The queue dropped its copy of the captures once the handler returned.
  EXPECT_EQ(token.use_count(), 1);
  // The next event takes the freed slot: its captures land at the same address.
  sim.ScheduleAt(20, [&second_slot, token] { second_slot = &token; });
  sim.RunToCompletion();
  EXPECT_EQ(token.use_count(), 1);
  ASSERT_NE(first_slot, nullptr);
  EXPECT_EQ(first_slot, second_slot);
}

// --- EventSource merging. ---

// A stream of `count` events at fixed `stride` spacing, opened with a reserved
// seq range like the platform's arrival cursor.
class TestSource : public EventSource {
 public:
  TestSource(Simulator& sim, SimTime start, SimTime stride, int count,
             std::vector<int>* log)
      : sim_(sim), start_(start), stride_(stride), count_(count), log_(log) {}

  void Reserve() { seq_base_ = sim_.ReserveSeqRange(static_cast<uint64_t>(count_)); }

  bool Head(SimTime* time, uint64_t* seq) override {
    if (next_ == count_) {
      return false;
    }
    *time = start_ + stride_ * next_;
    *seq = seq_base_ + static_cast<uint64_t>(next_);
    return true;
  }

  void RunHead() override {
    log_->push_back(1000 + next_);
    ++next_;
  }

 private:
  Simulator& sim_;
  SimTime start_;
  SimTime stride_;
  int count_;
  std::vector<int>* log_;
  uint64_t seq_base_ = 0;
  int next_ = 0;
};

TEST(EventSourceTest, StreamInterleavesWithQueueByTime) {
  Simulator sim;
  std::vector<int> log;
  TestSource source(sim, 10, 20, 3, &log);  // Heads at 10, 30, 50.
  source.Reserve();
  sim.AttachSource(&source);
  sim.ScheduleAt(5, [&] { log.push_back(0); });
  sim.ScheduleAt(20, [&] { log.push_back(1); });
  sim.ScheduleAt(40, [&] { log.push_back(2); });
  sim.ScheduleAt(60, [&] { log.push_back(3); });
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{0, 1000, 1, 1001, 2, 1002, 3}));
  EXPECT_EQ(sim.events_processed(), 7u);
  sim.AttachSource(nullptr);
}

TEST(EventSourceTest, SameTimeTieBreaksBySeq) {
  // A queued event scheduled before the stream reserves its range outranks the
  // stream head at the same timestamp; one scheduled after does not.
  Simulator sim;
  std::vector<int> log;
  sim.ScheduleAt(10, [&] { log.push_back(0); });  // seq 0 < stream seqs.
  TestSource source(sim, 10, 10, 2, &log);        // Heads at 10, 20.
  source.Reserve();                               // seqs 1, 2.
  sim.AttachSource(&source);
  sim.ScheduleAt(10, [&] { log.push_back(1); });  // seq 3 > stream head seq.
  sim.ScheduleAt(20, [&] { log.push_back(2); });  // seq 4 > second head.
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{0, 1000, 1, 1001, 2}));
  sim.AttachSource(nullptr);
}

TEST(EventSourceTest, RunUntilHonorsStreamBoundary) {
  Simulator sim;
  std::vector<int> log;
  TestSource source(sim, 100, 100, 3, &log);  // Heads at 100, 200, 300.
  source.Reserve();
  sim.AttachSource(&source);
  EXPECT_EQ(sim.RunUntil(200), 2u);  // Heads at 100 and 200 fire; 300 waits.
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(log, (std::vector<int>{1000, 1001}));
  sim.RunToCompletion();
  EXPECT_EQ(log, (std::vector<int>{1000, 1001, 1002}));
  sim.AttachSource(nullptr);
}

}  // namespace
}  // namespace coldstart::sim
