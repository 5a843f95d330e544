// Tests for the discrete-event simulator core: (time, seq) ordering of the event
// queue, token dispatch to the attached EventTarget, clock semantics, and the
// merged EventSource stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace coldstart::sim {
namespace {

// Logs every fired token with the clock it fired at. `on_fire` lets a test
// schedule more events from inside a firing, as the platform does.
class RecordingTarget : public EventTarget {
 public:
  explicit RecordingTarget(Simulator& sim) : sim_(sim) { sim_.AttachTarget(this); }
  ~RecordingTarget() override { sim_.AttachTarget(nullptr); }

  void Fire(uint64_t token) override {
    log.push_back(token);
    times.push_back(sim_.now());
    if (on_fire) {
      on_fire(token);
    }
  }

  std::vector<uint64_t> log;
  std::vector<SimTime> times;
  std::function<void(uint64_t)> on_fire;

 private:
  Simulator& sim_;
};

using Tokens = std::vector<uint64_t>;

constexpr SimTime kForever = SimTime{1} << 62;

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  RecordingTarget target(sim);
  sim.ScheduleAt(30, 3);
  sim.ScheduleAt(10, 1);
  sim.ScheduleAt(20, 2);
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{1, 2, 3}));
  EXPECT_EQ(target.times, (std::vector<SimTime>{10, 20, 30}));
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  RecordingTarget target(sim);
  Tokens expected;
  for (uint64_t i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, i);
    expected.push_back(i);
  }
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, expected);
}

TEST(SimulatorTest, TokensAndSeqsRoundTrip) {
  // The queue hands back every token word unchanged, and each schedule consumes
  // the next seq.
  Simulator sim;
  RecordingTarget target(sim);
  const Tokens tokens = {~uint64_t{0}, 0, uint64_t{0xdeadbeef} << 32 | 7};
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(sim.ScheduleAt(100, tokens[i]), i);
  }
  EXPECT_EQ(sim.next_seq(), tokens.size());
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, tokens);
}

TEST(SimulatorTest, FiringTargetCanScheduleMore) {
  Simulator sim;
  RecordingTarget target(sim);
  target.on_fire = [&sim](uint64_t token) {
    if (token < 4) {
      sim.ScheduleAt(sim.now() + 10, token + 1);
    }
  };
  sim.ScheduleAt(0, 0);
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{0, 1, 2, 3, 4}));
  EXPECT_EQ(target.times.back(), 40);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  RecordingTarget target(sim);
  sim.ScheduleAt(10, 1);
  sim.ScheduleAt(20, 2);
  sim.ScheduleAt(30, 3);
  EXPECT_EQ(sim.RunUntil(20), 2u);  // Events at exactly `until` fire.
  EXPECT_EQ(target.log, (Tokens{1, 2}));
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(100);
  EXPECT_EQ(target.log, (Tokens{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);  // Clock advances to the requested horizon.
}

TEST(SimulatorTest, DrainedRunAdvancesClockToHorizon) {
  Simulator sim;
  RecordingTarget target(sim);
  sim.ScheduleAt(10, 1);
  EXPECT_EQ(sim.RunUntil(1000), 1u);
  EXPECT_EQ(sim.now(), 1000);
  EXPECT_EQ(sim.RunUntil(2000), 0u);
  EXPECT_EQ(sim.now(), 2000);
}

TEST(SimulatorTest, SchedulingInPastDies) {
  Simulator sim;
  RecordingTarget target(sim);
  sim.ScheduleAt(100, 0);
  sim.RunUntil(100);
  EXPECT_DEATH(sim.ScheduleAt(50, 0), "CHECK");
}

TEST(SimulatorTest, SchedulingWithoutTargetDies) {
  Simulator sim;
  EXPECT_DEATH(sim.ScheduleAt(10, 0), "CHECK");
}

TEST(SimulatorTest, EventCountAccumulates) {
  Simulator sim;
  RecordingTarget target(sim);
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAt(i, 0);
  }
  sim.RunUntil(kForever);
  EXPECT_EQ(sim.events_processed(), 7u);
}

// --- Queue order. ---

TEST(SimulatorTest, SameTimeFifoAcrossPartialRuns) {
  // Events at one far timestamp are scheduled from ever closer clocks; FIFO by
  // insertion must hold across the partial runs in between.
  Simulator sim;
  RecordingTarget target(sim);
  const SimTime t = 10 * kMinute;
  sim.ScheduleAt(t, 0);
  sim.RunUntil(8 * kMinute);
  sim.ScheduleAt(t, 1);
  sim.RunUntil(t - 100 * kMillisecond);
  sim.ScheduleAt(t, 2);
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{0, 1, 2}));
}

TEST(SimulatorTest, MixedHorizonsFireInTimeOrder) {
  Simulator sim;
  RecordingTarget target(sim);
  const std::vector<SimTime> times = {
      3 * kHour,  500,  kDay, 2 * kMinute, 90 * kSecond, 1,
      5 * kHour,  kDay, 999,  kMinute,     kSecond,      kHour + 1,
  };
  for (const SimTime t : times) {
    sim.ScheduleAt(t, 0);
  }
  sim.RunUntil(kForever);
  std::vector<SimTime> expected = times;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(target.times, expected);
}

TEST(SimulatorTest, ScheduleBeforePeekedEventPreservesOrder) {
  // RunUntil peeks at a far event and stops short of it; a later schedule into
  // the gap must still fire first.
  Simulator sim;
  RecordingTarget target(sim);
  sim.ScheduleAt(kHour, 1);  // Far event, peeked at.
  sim.RunUntil(1000);
  EXPECT_EQ(sim.now(), 1000);
  sim.ScheduleAt(2000, 0);  // Into the gap.
  sim.ScheduleAt(2000, 10);
  sim.RunUntil(kHour);
  EXPECT_EQ(target.log, (Tokens{0, 10, 1}));
  EXPECT_EQ(sim.now(), kHour);
}

TEST(SimulatorTest, RandomScheduleMatchesStableSortOrder) {
  // The queue must reproduce exactly the (time, insertion seq) total order of a
  // stable sort.
  Simulator sim;
  RecordingTarget target(sim);
  Rng rng(2024);
  std::vector<std::pair<SimTime, uint64_t>> scheduled;
  const uint64_t n = 5000;
  for (uint64_t i = 0; i < n; ++i) {
    // Spread over ~6 minutes, so ties are rare and near and far events mix.
    const SimTime t = static_cast<SimTime>(rng.NextBounded(6 * kMinute));
    scheduled.push_back({t, i});
    sim.ScheduleAt(t, i);
  }
  sim.RunUntil(kForever);
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(target.log.size(), scheduled.size());
  for (size_t i = 0; i < scheduled.size(); ++i) {
    EXPECT_EQ(target.log[i], scheduled[i].second) << "position " << i;
  }
}

TEST(SimulatorTest, EventsScheduledAtNowRunThisSweep) {
  Simulator sim;
  RecordingTarget target(sim);
  target.on_fire = [&sim](uint64_t token) {
    if (token == 0) {
      sim.ScheduleAt(100, 2);  // Same timestamp, later seq.
    }
  };
  sim.ScheduleAt(100, 0);
  sim.ScheduleAt(100, 1);
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{0, 1, 2}));
  EXPECT_EQ(target.times, (std::vector<SimTime>{100, 100, 100}));
}

TEST(SimulatorTest, RestoredEventsPopInTimeSeqOrder) {
  // Checkpoint restore re-queues events under their original keys in whatever
  // order the census walks them: seqs arrive out of order, also at equal times.
  // Each token is its seq, so the log shows the pop order.
  Simulator sim;
  RecordingTarget target(sim);
  sim.RestoreClock(1000, 100, 0);
  const std::vector<std::pair<SimTime, uint64_t>> keys = {
      {5000, 42}, {2000, 7},  {5000, 3},  {2000, 99}, {5000, 17},
      {1000, 64}, {2000, 1},  {9000, 0},  {1000, 12}, {5000, 80},
  };
  for (const auto& [t, seq] : keys) {
    sim.RestoreEvent(t, seq, seq);
  }
  // One fresh event (seq 100) ties the restored ones at 2000 and fires last.
  EXPECT_EQ(sim.ScheduleAt(2000, 100), 100u);
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{12, 64, 1, 7, 99, 100, 3, 17, 42, 80, 0}));
}

// --- Re-keying in place. ---

TEST(SimulatorTest, RekeyedEventFiresOnceAtItsNewKey) {
  // A re-key takes a fresh seq, as a new schedule would: moved later onto an
  // occupied µs it fires after the event already there, and it never fires
  // at its old key.
  Simulator sim;
  RecordingTarget target(sim);
  EventQueue::Entry moved = 0;
  EXPECT_EQ(sim.ScheduleAt(100, 7, &moved), 0u);
  sim.ScheduleAt(500, 1);
  sim.ScheduleAt(300, 2);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.RescheduleAt(moved, 500), 3u);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.next_seq(), 4u);
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{2, 1, 7}));
  EXPECT_EQ(target.times, (std::vector<SimTime>{300, 500, 500}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, RekeyedEventCanMoveEarlier) {
  // Moved earlier onto an occupied µs, the fresh seq still orders it after
  // the event that was scheduled there first.
  Simulator sim;
  RecordingTarget target(sim);
  sim.ScheduleAt(200, 1);
  EventQueue::Entry moved = 0;
  sim.ScheduleAt(900, 7, &moved);
  sim.ScheduleAt(400, 2);
  sim.RunUntil(150);
  sim.RescheduleAt(moved, 200);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{1, 7, 2}));
  EXPECT_EQ(target.times, (std::vector<SimTime>{200, 200, 400}));
}

TEST(SimulatorTest, ReschedulingIntoThePastDies) {
  Simulator sim;
  RecordingTarget target(sim);
  EventQueue::Entry entry = 0;
  sim.ScheduleAt(100, 0, &entry);
  sim.RunUntil(50);
  EXPECT_DEATH(sim.RescheduleAt(entry, 40), "CHECK");
}

TEST(SimulatorTest, RandomRekeysMatchReferenceOrder) {
  // Pushes, re-keys (both directions) and pops, interleaved at random, pop in
  // exactly the order of a brute-force model that keeps each live event's
  // latest (time, seq) key.
  Simulator sim;
  RecordingTarget target(sim);
  Rng rng(29);
  struct Live {
    SimTime time;
    uint64_t seq;
    EventQueue::Entry entry;
  };
  std::vector<std::pair<uint64_t, Live>> live;  // (token, key) per live event.
  Tokens expected;
  uint64_t next_token = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBounded(8);
    const SimTime t = sim.now() + static_cast<SimTime>(rng.NextBounded(1000));
    if (op < 3 || live.empty()) {
      EventQueue::Entry entry = 0;
      const uint64_t seq = sim.ScheduleAt(t, next_token, &entry);
      live.push_back({next_token++, Live{t, seq, entry}});
    } else if (op < 5) {
      Live& l = live[rng.NextBounded(live.size())].second;
      l.time = t;
      l.seq = sim.RescheduleAt(l.entry, t);
    } else {
      // Run to the earliest time: the model fires every event there in seq
      // order, and the queue must agree.
      std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
        return std::pair(a.second.time, a.second.seq) <
               std::pair(b.second.time, b.second.seq);
      });
      const SimTime fire_at = live.front().second.time;
      auto end = live.begin();
      while (end != live.end() && end->second.time == fire_at) {
        expected.push_back((end++)->first);
      }
      live.erase(live.begin(), end);
      sim.RunUntil(fire_at);
      ASSERT_EQ(target.log, expected) << "step " << step;
    }
    ASSERT_EQ(sim.pending_events(), live.size());
  }
}

// --- EventSource merging. ---

// A stream of `count` events at fixed `stride` spacing, opened with a reserved
// seq range like the platform's arrival cursor. Entry k logs 1000 + k.
class TestSource : public EventSource {
 public:
  TestSource(Simulator& sim, SimTime start, SimTime stride, int count,
             std::vector<uint64_t>* log)
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
    log_->push_back(1000 + static_cast<uint64_t>(next_));
    ++next_;
  }

 private:
  Simulator& sim_;
  SimTime start_;
  SimTime stride_;
  int count_;
  std::vector<uint64_t>* log_;
  uint64_t seq_base_ = 0;
  int next_ = 0;
};

TEST(EventSourceTest, StreamInterleavesWithQueueByTime) {
  Simulator sim;
  RecordingTarget target(sim);
  TestSource source(sim, 10, 20, 3, &target.log);  // Heads at 10, 30, 50.
  source.Reserve();
  sim.AttachSource(&source);
  sim.ScheduleAt(5, 0);
  sim.ScheduleAt(20, 1);
  sim.ScheduleAt(40, 2);
  sim.ScheduleAt(60, 3);
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{0, 1000, 1, 1001, 2, 1002, 3}));
  EXPECT_EQ(sim.events_processed(), 7u);
  sim.AttachSource(nullptr);
}

TEST(EventSourceTest, SameTimeTieBreaksBySeq) {
  // A queued event scheduled before the stream reserves its range outranks the
  // stream head at the same timestamp; one scheduled after does not.
  Simulator sim;
  RecordingTarget target(sim);
  sim.ScheduleAt(10, 0);                            // seq 0 < stream seqs.
  TestSource source(sim, 10, 10, 2, &target.log);  // Heads at 10, 20.
  source.Reserve();                                 // seqs 1, 2.
  sim.AttachSource(&source);
  sim.ScheduleAt(10, 1);  // seq 3 > stream head seq.
  sim.ScheduleAt(20, 2);  // seq 4 > second head.
  sim.RunUntil(kForever);
  EXPECT_EQ(target.log, (Tokens{0, 1000, 1, 1001, 2}));
  sim.AttachSource(nullptr);
}

TEST(EventSourceTest, RunUntilHonorsStreamBoundary) {
  Simulator sim;
  std::vector<uint64_t> log;
  TestSource source(sim, 100, 100, 3, &log);  // Heads at 100, 200, 300.
  source.Reserve();
  sim.AttachSource(&source);
  EXPECT_EQ(sim.RunUntil(200), 2u);  // Heads at 100 and 200 fire; 300 waits.
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(log, (Tokens{1000, 1001}));
  sim.RunUntil(kForever);
  EXPECT_EQ(log, (Tokens{1000, 1001, 1002}));
  sim.AttachSource(nullptr);
}

}  // namespace
}  // namespace coldstart::sim
