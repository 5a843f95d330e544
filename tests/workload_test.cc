// Tests for calendar, diurnal profiles, population generation, and arrivals —
// including the statistical properties the replay subsystem leans on: sorted
// in-horizon streams, per-region rates that track the diurnal-profile integral,
// and bit-identical regeneration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "workload/arrival_stream.h"
#include "workload/arrivals.h"
#include "workload/population.h"
#include "workload/workload_source.h"

namespace coldstart::workload {
namespace {

TEST(CalendarTest, HolidayWindow) {
  const Calendar cal;
  EXPECT_FALSE(cal.IsHoliday(13));
  EXPECT_TRUE(cal.IsHoliday(14));
  EXPECT_TRUE(cal.IsHoliday(23));
  EXPECT_FALSE(cal.IsHoliday(24));
  EXPECT_EQ(cal.last_workday_before_holiday(), 13);
  EXPECT_EQ(cal.first_workday_after_holiday(), 24);
}

TEST(CalendarTest, WeekendsWithTuesdayStart) {
  const Calendar cal;  // Day 0 is a Tuesday.
  EXPECT_FALSE(cal.IsWeekend(0));   // Tuesday.
  EXPECT_TRUE(cal.IsWeekend(4));    // Saturday.
  EXPECT_TRUE(cal.IsWeekend(5));    // Sunday.
  EXPECT_FALSE(cal.IsWeekend(6));   // Monday.
  EXPECT_FALSE(cal.IsWeekend(13));  // Last pre-holiday workday is a weekday.
  EXPECT_FALSE(cal.IsWeekend(24));  // First post-holiday workday is a weekday.
}

TEST(CalendarTest, HorizonMatchesDays) {
  Calendar::Options opts;
  opts.trace_days = 7;
  const Calendar cal(opts);
  EXPECT_EQ(cal.horizon(), 7 * kDay);
}

TEST(DiurnalTest, DayShapePeaksAtConfiguredHour) {
  DiurnalParams params;
  params.bumps = {{14.0, 1.0, 5.0}};
  params.floor = 0.2;
  const DiurnalProfile profile(params, Calendar{});
  EXPECT_NEAR(profile.DayShape(14.0), 1.0, 1e-6);  // Normalized peak.
  EXPECT_LT(profile.DayShape(2.0), 0.4);
}

TEST(DiurnalTest, WeekendFactorApplies) {
  DiurnalParams params;
  params.weekend_factor = 0.7;
  const DiurnalProfile profile(params, Calendar{});
  EXPECT_DOUBLE_EQ(profile.DayLevel(0), 1.0);
  EXPECT_DOUBLE_EQ(profile.DayLevel(5), 0.7);
}

TEST(DiurnalTest, HolidayDipAndCatchUp) {
  DiurnalParams params;
  params.holiday = HolidayResponse::kDipWithCatchUp;
  params.holiday_level = 0.5;
  params.pre_holiday_boost = 1.2;
  params.catch_up_boost = 1.4;
  const DiurnalProfile profile(params, Calendar{});
  EXPECT_NEAR(profile.DayLevel(13), 1.2, 1e-9);   // Last-workday rush.
  EXPECT_LE(profile.DayLevel(17), 0.5 + 1e-9);    // Mid-holiday.
  EXPECT_GT(profile.DayLevel(24), 1.2);           // Catch-up.
  EXPECT_GT(profile.DayLevel(24), profile.DayLevel(26));  // Decays.
}

TEST(DiurnalTest, RisePatternIncreasesDuringHoliday) {
  DiurnalParams params;
  params.holiday = HolidayResponse::kRise;
  params.holiday_level = 1.3;
  const DiurnalProfile profile(params, Calendar{});
  EXPECT_GT(profile.DayLevel(17), profile.DayLevel(10));
}

TEST(DiurnalTest, NoneIgnoresHoliday) {
  DiurnalParams params;
  params.holiday = HolidayResponse::kNone;
  const DiurnalProfile profile(params, Calendar{});
  EXPECT_DOUBLE_EQ(profile.DayLevel(17), profile.DayLevel(3));
}

class PopulationTest : public ::testing::Test {
 protected:
  static const Population& Pop() {
    static const Population pop =
        GeneratePopulation(DefaultRegionProfiles(), /*seed=*/42);
    return pop;
  }
};

TEST_F(PopulationTest, CountsMatchProfiles) {
  const auto& profiles = DefaultRegionProfiles();
  int expected = 0;
  for (const auto& p : profiles) {
    expected += p.num_functions;
  }
  EXPECT_EQ(Pop().functions.size(), static_cast<size_t>(expected));
  ASSERT_EQ(Pop().region_begin.size(), profiles.size() + 1);
  EXPECT_EQ(Pop().region_begin.back(), Pop().functions.size());
}

TEST_F(PopulationTest, DeterministicInSeed) {
  const Population a = GeneratePopulation(DefaultRegionProfiles(), 7);
  const Population b = GeneratePopulation(DefaultRegionProfiles(), 7);
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].runtime, b.functions[i].runtime);
    EXPECT_EQ(a.functions[i].primary_trigger, b.functions[i].primary_trigger);
    EXPECT_DOUBLE_EQ(a.functions[i].base_rate_per_day, b.functions[i].base_rate_per_day);
  }
}

TEST_F(PopulationTest, RuntimeMixWithinTolerance) {
  // R2's Python3 share should be near its 0.38 weight.
  const auto& pop = Pop();
  int py3 = 0, total = 0;
  for (uint32_t i = pop.region_begin[1]; i < pop.region_begin[2]; ++i) {
    total += 1;
    py3 += pop.functions[i].runtime == trace::Runtime::kPython3 ? 1 : 0;
  }
  const double share = static_cast<double>(py3) / total;
  EXPECT_GT(share, 0.30);
  EXPECT_LT(share, 0.46);
}

TEST_F(PopulationTest, TimerShareInBand) {
  const auto& pop = Pop();
  int timers = 0, total = 0;
  for (uint32_t i = pop.region_begin[1]; i < pop.region_begin[2]; ++i) {
    total += 1;
    timers += pop.functions[i].primary_trigger == trace::Trigger::kTimer ? 1 : 0;
  }
  const double share = static_cast<double>(timers) / total;
  EXPECT_GT(share, 0.35);
  EXPECT_LT(share, 0.60);
}

TEST_F(PopulationTest, TimersHaveValidPeriodsAndFlatDiurnal) {
  for (const auto& f : Pop().functions) {
    if (f.kind == ArrivalKind::kTimer) {
      EXPECT_GT(f.timer_period, 0);
      EXPECT_DOUBLE_EQ(f.diurnal_exponent, 0.0);
    }
  }
}

TEST_F(PopulationTest, WorkflowChildrenAreWiredToParents) {
  const auto& pop = Pop();
  std::set<trace::FunctionId> children_with_parents;
  for (const auto& f : pop.functions) {
    for (const auto& edge : f.children) {
      EXPECT_GT(edge.probability, 0.0);
      EXPECT_LE(edge.probability, 1.0);
      // Parent and child live in the same region.
      EXPECT_EQ(pop.functions[edge.child].region, f.region);
      children_with_parents.insert(edge.child);
    }
  }
  int workflow_children = 0;
  for (const auto& f : pop.functions) {
    if (f.kind == ArrivalKind::kWorkflowChild) {
      ++workflow_children;
      EXPECT_TRUE(children_with_parents.count(f.id) == 1);
    }
  }
  EXPECT_GT(workflow_children, 20);
}

TEST_F(PopulationTest, CpuWithinConfigLimits) {
  for (const auto& f : Pop().functions) {
    EXPECT_LE(f.cpu_mean_cores,
              static_cast<double>(CpuMillicoresOf(f.config)) / 1000.0 + 1e-9);
    EXPECT_GT(f.cpu_mean_cores, 0.0);
  }
}

TEST_F(PopulationTest, UsersOwnAtLeastOneFunction) {
  const auto& pop = Pop();
  std::set<uint32_t> users;
  for (const auto& f : pop.functions) {
    users.insert(f.user);
  }
  EXPECT_EQ(users.size(), pop.num_users);
}

TEST(ArrivalsTest, TimerArrivalsAreExactlyPeriodic) {
  FunctionSpec spec;
  spec.kind = ArrivalKind::kTimer;
  spec.timer_period = kHour;
  Calendar::Options opts;
  opts.trace_days = 2;
  const Calendar cal(opts);
  const DiurnalProfile profile(DiurnalParams{}, cal);
  const auto times = GenerateFunctionArrivals(spec, profile, cal, Rng(5));
  EXPECT_EQ(times.size(), 48u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], kHour);
  }
}

TEST(ArrivalsTest, PoissonRateApproximatelyHonored) {
  FunctionSpec spec;
  spec.kind = ArrivalKind::kModulatedPoisson;
  spec.base_rate_per_day = 500;
  spec.diurnal_exponent = 0.0;  // Flat: realized = base x day level.
  Calendar::Options opts;
  opts.trace_days = 5;  // All weekdays, before the holiday.
  const Calendar cal(opts);
  const DiurnalProfile profile(DiurnalParams{}, cal);
  const auto times = GenerateFunctionArrivals(spec, profile, cal, Rng(6));
  EXPECT_NEAR(static_cast<double>(times.size()), 2500.0, 150.0);
}

TEST(ArrivalsTest, RegularArrivalsBoundGaps) {
  FunctionSpec spec;
  spec.kind = ArrivalKind::kModulatedPoisson;
  spec.base_rate_per_day = 2880;  // 2/minute.
  spec.diurnal_exponent = 0.0;
  spec.regular_arrivals = true;
  Calendar::Options opts;
  opts.trace_days = 1;
  const Calendar cal(opts);
  const DiurnalProfile profile(DiurnalParams{}, cal);
  const auto times = GenerateFunctionArrivals(spec, profile, cal, Rng(7));
  ASSERT_GT(times.size(), 100u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i] - times[i - 1], 40 * kSecond);  // 30s nominal, 20% jitter.
  }
}

TEST(ArrivalsTest, SortedAndWithinHorizon) {
  const auto& profiles = DefaultRegionProfiles();
  const Population pop = GeneratePopulation(profiles, 3);
  Calendar::Options opts;
  opts.trace_days = 2;
  const Calendar cal(opts);
  const auto events = GenerateArrivals(pop, profiles, cal, 3);
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
  EXPECT_GE(events.front().time, 0);
  EXPECT_LT(events.back().time, cal.horizon());
}

TEST(ArrivalsTest, DeterministicInSeed) {
  const auto& profiles = DefaultRegionProfiles();
  const Population pop = GeneratePopulation(profiles, 3);
  Calendar::Options opts;
  opts.trace_days = 1;
  const Calendar cal(opts);
  const auto a = GenerateArrivals(pop, profiles, cal, 11);
  const auto b = GenerateArrivals(pop, profiles, cal, 11);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].function, b[i].function);
  }
}

// --- Statistical properties of the full generator. ---

TEST(ArrivalsStatsTest, SortedWithinHorizonInEveryRegion) {
  const auto& profiles = DefaultRegionProfiles();
  const Population pop = GeneratePopulation(profiles, 17);
  Calendar::Options opts;
  opts.trace_days = 3;
  const Calendar cal(opts);
  const auto events = GenerateArrivals(pop, profiles, cal, 17);
  ASSERT_FALSE(events.empty());
  std::vector<int64_t> per_region(profiles.size(), 0);
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      ASSERT_LE(events[i - 1].time, events[i].time) << "unsorted at " << i;
    }
    ASSERT_GE(events[i].time, 0);
    ASSERT_LT(events[i].time, cal.horizon());
    ASSERT_LT(events[i].function, pop.functions.size());
    ++per_region[pop.functions[events[i].function].region];
  }
  for (size_t r = 0; r < per_region.size(); ++r) {
    EXPECT_GT(per_region[r], 0) << "region " << r << " generated no arrivals";
  }
}

TEST(ArrivalsStatsTest, PerRegionRateMatchesDiurnalIntegral) {
  // A controlled population — plain modulated-Poisson functions, personality
  // exponent 1, no bursts — whose expected count has a closed form: the hourly
  // integral of base_rate/24 * DayShape^1 * DayLevel, exactly the envelope the
  // generator samples under. Empirical per-region counts must land within
  // Poisson noise of that integral.
  Calendar::Options opts;
  opts.trace_days = 7;
  const Calendar cal(opts);
  const auto& defaults = DefaultRegionProfiles();
  const std::vector<RegionProfile> profiles = {defaults[0], defaults[1]};
  constexpr int kPerRegion = 40;
  constexpr double kRatePerDay = 300.0;

  Population pop;
  pop.num_users = 1;
  pop.region_begin.push_back(0);
  for (size_t r = 0; r < profiles.size(); ++r) {
    for (int i = 0; i < kPerRegion; ++i) {
      FunctionSpec f;
      f.id = static_cast<trace::FunctionId>(pop.functions.size());
      f.region = static_cast<trace::RegionId>(r);
      f.kind = ArrivalKind::kModulatedPoisson;
      f.base_rate_per_day = kRatePerDay;
      f.diurnal_exponent = 1.0;
      pop.functions.push_back(f);
    }
    pop.region_begin.push_back(static_cast<uint32_t>(pop.functions.size()));
  }

  const auto events = GenerateArrivals(pop, profiles, cal, 99);
  std::vector<double> observed(profiles.size(), 0);
  for (const auto& e : events) {
    observed[pop.functions[e.function].region] += 1;
  }

  for (size_t r = 0; r < profiles.size(); ++r) {
    const DiurnalProfile profile(profiles[r].diurnal, cal);
    double expected_per_function = 0;
    for (int64_t h = 0; h < cal.trace_days() * 24; ++h) {
      const double hour_mid = static_cast<double>(h % 24) + 0.5;
      expected_per_function +=
          kRatePerDay / 24.0 * profile.DayShape(hour_mid) * profile.DayLevel(h / 24);
    }
    const double expected = kPerRegion * expected_per_function;
    ASSERT_GT(expected, 1000.0);
    // 5 sigma of Poisson noise: a false failure is a ~1e-6 event.
    EXPECT_NEAR(observed[r], expected, 5.0 * std::sqrt(expected))
        << "region " << r << " empirical rate drifted from the diurnal integral";
  }
}

TEST(ArrivalsStatsTest, BitIdenticalAcrossRepeatedCalls) {
  const auto& profiles = DefaultRegionProfiles();
  const Population pop = GeneratePopulation(profiles, 23);
  Calendar::Options opts;
  opts.trace_days = 2;
  const Calendar cal(opts);
  const auto a = GenerateArrivals(pop, profiles, cal, 23);
  const auto b = GenerateArrivals(pop, profiles, cal, 23);
  // Through the WorkloadSource interface as well: the synthetic source is a
  // transparent wrapper, so all three streams must agree element for element.
  const SyntheticSource source;
  const auto c = source.Arrivals(pop, profiles, cal, 23);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].time, b[i].time) << i;
    ASSERT_EQ(a[i].function, b[i].function) << i;
    ASSERT_EQ(a[i].time, c[i].time) << i;
    ASSERT_EQ(a[i].function, c[i].function) << i;
  }
  // And a different seed actually changes the stream.
  const auto d = GenerateArrivals(pop, profiles, cal, 24);
  EXPECT_TRUE(d.size() != a.size() ||
              !std::equal(a.begin(), a.end(), d.begin(),
                          [](const ArrivalEvent& x, const ArrivalEvent& y) {
                            return x.time == y.time && x.function == y.function;
                          }));
}

// --- Chunked arrival streaming (workload/arrival_stream.h). ---
//
// The contracts the platform's day-batch injector leans on: day-ordered chunks
// whose sorted events partition the eager vector at day boundaries, bit-identical
// regeneration of any window from a fresh stream, and region-filtered streams
// that partition the full one (what each experiment shard pulls).

std::vector<ArrivalChunk> CollectChunks(ArrivalStream& stream) {
  std::vector<ArrivalChunk> chunks;
  ArrivalChunk chunk;
  while (stream.NextChunk(&chunk)) {
    chunks.push_back(chunk);
  }
  return chunks;
}

void ExpectChunkInvariants(const std::vector<ArrivalChunk>& chunks,
                           const Calendar& cal) {
  ASSERT_EQ(chunks.size(), static_cast<size_t>(NumDayChunks(cal)));
  for (size_t d = 0; d < chunks.size(); ++d) {
    ASSERT_EQ(chunks[d].day, static_cast<int64_t>(d));
    const auto& events = chunks[d].events;
    for (size_t i = 0; i < events.size(); ++i) {
      ASSERT_GE(events[i].time, static_cast<SimTime>(d) * kDay);
      ASSERT_LT(events[i].time,
                std::min<SimTime>(static_cast<SimTime>(d + 1) * kDay, cal.horizon()));
      if (i > 0) {
        // Sorted by (time, function) within the chunk.
        ASSERT_TRUE(events[i - 1].time < events[i].time ||
                    (events[i - 1].time == events[i].time &&
                     events[i - 1].function <= events[i].function))
            << "chunk " << d << " unsorted at " << i;
      }
    }
  }
}

std::vector<ArrivalEvent> Concat(const std::vector<ArrivalChunk>& chunks) {
  std::vector<ArrivalEvent> out;
  for (const auto& c : chunks) {
    out.insert(out.end(), c.events.begin(), c.events.end());
  }
  return out;
}

void ExpectSameEvents(const std::vector<ArrivalEvent>& a,
                      const std::vector<ArrivalEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].time, b[i].time) << i;
    ASSERT_EQ(a[i].function, b[i].function) << i;
  }
}

TEST(ArrivalStreamTest, SyntheticChunksPartitionTheEagerVector) {
  const auto& profiles = DefaultRegionProfiles();
  const Population pop = GeneratePopulation(profiles, 31);
  Calendar::Options opts;
  opts.trace_days = 3;
  const Calendar cal(opts);
  const SyntheticSource source;
  const auto eager = source.Arrivals(pop, profiles, cal, 31);

  auto stream = source.OpenStream(pop, profiles, cal, 31);
  const auto chunks = CollectChunks(*stream);
  ExpectChunkInvariants(chunks, cal);
  ExpectSameEvents(Concat(chunks), eager);
  // The split is real: every day carries load (timers alone guarantee it), so
  // arrival processes straddle both chunk boundaries.
  for (const auto& c : chunks) {
    EXPECT_FALSE(c.events.empty()) << "day " << c.day;
  }
}

TEST(ArrivalStreamTest, DayBoundaryStraddleKeepsCursorStateContinuous) {
  // A 7-hour timer is never day-aligned: ticks straddle midnight, and the split
  // windows must contain exactly the whole-horizon sequence — the cursor carries
  // its phase across the boundary instead of re-drawing it.
  FunctionSpec spec;
  spec.kind = ArrivalKind::kTimer;
  spec.timer_period = 7 * kHour;
  Calendar::Options opts;
  opts.trace_days = 3;
  const Calendar cal(opts);
  const DiurnalProfile profile(DiurnalParams{}, cal);
  const auto whole = GenerateFunctionArrivals(spec, profile, cal, Rng(9));

  FunctionArrivalCursor cursor(spec, profile, cal, Rng(9));
  std::vector<SimTime> split;
  std::vector<size_t> day_first_index;
  for (int64_t d = 0; d < NumDayChunks(cal); ++d) {
    day_first_index.push_back(split.size());
    cursor.EmitDay(d, split);
  }
  ASSERT_EQ(split, whole);
  // Continuity across the day-0/day-1 boundary: the first tick of day 1 is
  // exactly one period after the last tick of day 0 (nothing re-phased), and it
  // is not day-aligned (the straddle is real).
  ASSERT_GT(day_first_index[1], 0u);
  ASSERT_LT(day_first_index[1], split.size());
  EXPECT_EQ(split[day_first_index[1]] - split[day_first_index[1] - 1],
            spec.timer_period);
  EXPECT_NE(split[day_first_index[1]] % kDay, 0);
}

TEST(ArrivalStreamTest, OutOfOrderWindowRegeneratesBitIdentically) {
  const auto& profiles = DefaultRegionProfiles();
  const Population pop = GeneratePopulation(profiles, 31);
  Calendar::Options opts;
  opts.trace_days = 4;
  const Calendar cal(opts);
  const SyntheticSource source;

  auto sequential = source.OpenStream(pop, profiles, cal, 31);
  const auto chunks = CollectChunks(*sequential);
  ASSERT_EQ(chunks.size(), 4u);

  // Regenerate day 2 "out of order": a fresh stream fast-forwarded past days 0-1.
  // Determinism in the construction arguments makes the windows bit-identical.
  auto reopened = source.OpenStream(pop, profiles, cal, 31);
  ArrivalChunk chunk;
  for (int skip = 0; skip < 2; ++skip) {
    ASSERT_TRUE(reopened->NextChunk(&chunk));
  }
  ASSERT_TRUE(reopened->NextChunk(&chunk));
  ASSERT_EQ(chunk.day, 2);
  ExpectSameEvents(chunk.events, chunks[2].events);
}

TEST(ArrivalStreamTest, RegionFilteredStreamsPartitionTheFullStream) {
  const auto& profiles = DefaultRegionProfiles();
  const Population pop = GeneratePopulation(profiles, 31);
  Calendar::Options opts;
  opts.trace_days = 2;
  const Calendar cal(opts);
  const SyntheticSource source;

  auto full = source.OpenStream(pop, profiles, cal, 31);
  const auto full_chunks = CollectChunks(*full);

  size_t filtered_total = 0;
  for (size_t r = 0; r < profiles.size(); ++r) {
    auto filtered = source.OpenStream(pop, profiles, cal, 31,
                                      static_cast<trace::RegionId>(r));
    const auto region_chunks = CollectChunks(*filtered);
    ASSERT_EQ(region_chunks.size(), full_chunks.size());
    for (size_t d = 0; d < full_chunks.size(); ++d) {
      // The filtered chunk is the order-preserving subsequence of the full one.
      std::vector<ArrivalEvent> expected;
      for (const auto& e : full_chunks[d].events) {
        if (pop.functions[e.function].region == r) {
          expected.push_back(e);
        }
      }
      ExpectSameEvents(region_chunks[d].events, expected);
      filtered_total += region_chunks[d].events.size();
    }
  }
  EXPECT_EQ(filtered_total, Concat(full_chunks).size());
}

TEST(ArrivalStreamTest, MaterializedStreamRoundTrips) {
  const auto& profiles = DefaultRegionProfiles();
  const Population pop = GeneratePopulation(profiles, 5);
  Calendar::Options opts;
  opts.trace_days = 2;
  const Calendar cal(opts);
  const auto eager = GenerateArrivals(pop, profiles, cal, 5);

  MaterializedArrivalStream stream(eager, NumDayChunks(cal));
  const auto chunks = CollectChunks(stream);
  ExpectChunkInvariants(chunks, cal);
  ExpectSameEvents(Concat(chunks), eager);
}

// --- SortDayChunk: the minute-bucket sort must equal std::sort with
// ArrivalOrderLess on every chunk shape the streams produce. ---

// Sorts `events` as day `day`'s chunk with SortDayChunk and with the std::sort
// reference, and requires identical output.
void ExpectDayChunkSortMatchesReference(int64_t day, std::vector<ArrivalEvent> events) {
  ArrivalChunk chunk;
  chunk.day = day;
  chunk.events = events;
  SortDayChunk(chunk);
  std::sort(events.begin(), events.end(), ArrivalOrderLess);
  EXPECT_EQ(chunk.day, day);
  ExpectSameEvents(chunk.events, events);
}

// `n` events with times uniform in [begin, end) and functions below
// `num_functions`, in generation (unsorted) order.
std::vector<ArrivalEvent> RandomEvents(Rng& rng, size_t n, SimTime begin, SimTime end,
                                       uint64_t num_functions) {
  std::vector<ArrivalEvent> events;
  for (size_t i = 0; i < n; ++i) {
    events.push_back(ArrivalEvent{
        begin + static_cast<SimTime>(rng.NextBounded(static_cast<uint64_t>(end - begin))),
        static_cast<trace::FunctionId>(rng.NextBounded(num_functions))});
  }
  return events;
}

void Shuffle(Rng& rng, std::vector<ArrivalEvent>& events) {
  for (size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[rng.NextBounded(i)]);
  }
}

TEST(SortDayChunkTest, EmptyAndSingleEvent) {
  ExpectDayChunkSortMatchesReference(0, {});
  ExpectDayChunkSortMatchesReference(4, {});
  ExpectDayChunkSortMatchesReference(2, {ArrivalEvent{2 * kDay + 12345, 7}});
}

TEST(SortDayChunkTest, MatchesReferenceOnSeededRandomChunks) {
  Rng rng(2026);
  for (const int64_t day : {0, 1, 30, 364}) {
    for (const size_t n : {2, 17, 1000, 30000}) {
      const SimTime day_start = day * kDay;
      ExpectDayChunkSortMatchesReference(
          day, RandomEvents(rng, n, day_start, day_start + kDay, 500));
    }
  }
}

TEST(SortDayChunkTest, EveryEventInOneMinute) {
  Rng rng(3);
  const SimTime minute_start = 5 * kDay + 613 * kMinute;
  ExpectDayChunkSortMatchesReference(
      5, RandomEvents(rng, 5000, minute_start, minute_start + kMinute, 50));
  // The first and the last minute of the day.
  ExpectDayChunkSortMatchesReference(5, RandomEvents(rng, 300, 5 * kDay, 5 * kDay + kMinute, 9));
  ExpectDayChunkSortMatchesReference(5, RandomEvents(rng, 300, 6 * kDay - kMinute, 6 * kDay, 9));
}

TEST(SortDayChunkTest, EventsAtBothEndsOfTheDay) {
  Rng rng(4);
  const int64_t day = 3;
  const SimTime day_start = day * kDay;
  const SimTime day_end = day_start + kDay;
  std::vector<ArrivalEvent> events = RandomEvents(rng, 2000, day_start, day_end, 100);
  for (const trace::FunctionId f : {9u, 0u, 4u}) {
    events.push_back(ArrivalEvent{day_end - 1, f});
    events.push_back(ArrivalEvent{day_start, f});
  }
  Shuffle(rng, events);
  ExpectDayChunkSortMatchesReference(day, events);
}

TEST(SortDayChunkTest, FinalDayClippedToTheHorizon) {
  // The last chunk of a horizon that ends mid-day only fills its first minutes.
  Rng rng(5);
  const int64_t day = 6;
  const SimTime horizon = day * kDay + 5 * kHour + 123;
  ExpectDayChunkSortMatchesReference(day, RandomEvents(rng, 4000, day * kDay, horizon, 300));
}

TEST(SortDayChunkTest, EqualTimesAndExactDuplicates) {
  Rng rng(6);
  const int64_t day = 1;
  std::vector<ArrivalEvent> events;
  // Equal times with different functions: a handful of instants, each shared
  // by many functions, some instants in the same minute.
  for (const SimTime t : {kDay + 7, kDay + 7 + kSecond, kDay + 90 * kMinute, 2 * kDay - 1}) {
    for (int i = 0; i < 40; ++i) {
      events.push_back(ArrivalEvent{t, static_cast<trace::FunctionId>(rng.NextBounded(60))});
    }
  }
  // Exact duplicates, as the replay stream emits for a rate scale above 1.
  for (const ArrivalEvent& e : RandomEvents(rng, 500, kDay, 2 * kDay, 80)) {
    const uint64_t copies = 1 + rng.NextBounded(3);
    for (uint64_t c = 0; c < copies; ++c) {
      events.push_back(e);
    }
  }
  Shuffle(rng, events);
  ExpectDayChunkSortMatchesReference(day, events);
}

TEST(SortDayChunkDeathTest, EventOutsideTheDayDies) {
  ArrivalChunk before;
  before.day = 2;
  before.events = {ArrivalEvent{2 * kDay + 5, 1}, ArrivalEvent{2 * kDay - 1, 1}};
  EXPECT_DEATH(SortDayChunk(before), "CHECK failed");
  ArrivalChunk after;
  after.day = 2;
  after.events = {ArrivalEvent{3 * kDay, 1}};
  EXPECT_DEATH(SortDayChunk(after), "CHECK failed");
}

TEST(ScaledProfileTest, ScalesFunctionsAndPools) {
  const RegionProfile base = DefaultRegionProfiles()[0];
  const RegionProfile half = ScaledProfile(base, 0.5);
  EXPECT_EQ(half.num_functions, base.num_functions / 2);
  EXPECT_LE(half.pool_base_size[0], base.pool_base_size[0]);
  EXPECT_GE(half.pool_base_size[6], 1);
}

TEST(RuntimeTraitsTest, CalibratedShape) {
  EXPECT_FALSE(TraitsOf(trace::Runtime::kCustom).pool_backed);
  EXPECT_GT(TraitsOf(trace::Runtime::kHttp).alloc_extra_s, 5.0);
  EXPECT_GT(TraitsOf(trace::Runtime::kNodeJs).sched_factor,
            TraitsOf(trace::Runtime::kGo1x).sched_factor * 3);
  EXPECT_GT(TraitsOf(trace::Runtime::kGo1x).dep_factor,
            TraitsOf(trace::Runtime::kPython3).dep_factor);
}

}  // namespace
}  // namespace coldstart::workload
