// Trace-replay tests: the round-trip bit-identity contract (export a run's
// arrival stream, replay it serially and region-sharded, get the identical
// trace back), replay semantics (remapping, windowing, rate scaling), and the
// fingerprint separation that keeps replay runs out of synthetic cache entries.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/coldstart_lab.h"
#include "temp_dir.h"

namespace coldstart {
namespace {

namespace fs = std::filesystem;

using workload::ArrivalEvent;
using workload::ReplayOptions;
using workload::ReplaySource;

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_support::TempPath("coldstart_replay_test");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const char* name) const { return (dir_ / name).string(); }

  void WriteFile(const char* name, const std::string& content) const {
    std::FILE* f = std::fopen(Path(name).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(content.c_str(), f);
    std::fclose(f);
  }

  fs::path dir_;
};

// A minimal population for pure-Arrivals tests (no simulation): `counts[r]`
// functions in region r, dense ids.
workload::Population TinyPopulation(const std::vector<uint32_t>& counts) {
  workload::Population pop;
  pop.region_begin.push_back(0);
  for (size_t r = 0; r < counts.size(); ++r) {
    for (uint32_t i = 0; i < counts[r]; ++i) {
      workload::FunctionSpec f;
      f.id = static_cast<trace::FunctionId>(pop.functions.size());
      f.region = static_cast<trace::RegionId>(r);
      pop.functions.push_back(f);
    }
    pop.region_begin.push_back(static_cast<uint32_t>(pop.functions.size()));
  }
  pop.num_users = 1;
  return pop;
}

std::vector<workload::RegionProfile> TinyProfiles(size_t regions) {
  const auto defaults = workload::DefaultRegionProfiles();
  return {defaults.begin(), defaults.begin() + regions};
}

// --- Tentpole acceptance: export -> replay is bit-identical, serial & sharded. ---

TEST_F(ReplayTest, RoundTripBitIdentitySerialAndSharded) {
  const core::ScenarioConfig config = core::SmallScenario();
  const core::Experiment synthetic(config);
  const core::ExperimentResult original = synthetic.Run(nullptr, /*num_threads=*/1);
  ASSERT_GT(original.store.requests().size(), 10000u);

  // Export exactly the arrival stream the run consumed (the source is
  // deterministic in the config, so regenerating it here matches the run).
  const core::WorkloadSnapshot snapshot = core::SnapshotWorkload(config);
  const auto& arrivals = snapshot.arrivals;
  ASSERT_TRUE(workload::WriteArrivalsCsv(arrivals, Path("arrivals.csv")));

  trace::CsvError error;
  std::shared_ptr<ReplaySource> replay =
      ReplaySource::FromArrivalsCsv(Path("arrivals.csv"), {}, &error);
  ASSERT_NE(replay, nullptr) << "line " << error.line << ": " << error.message;
  EXPECT_EQ(replay->raw_event_count(), arrivals.size());

  core::ScenarioConfig replay_config = config;
  replay_config.workload = replay;
  // The fingerprint distinguishes replay from synthetic: the trace cache can
  // never serve one for the other.
  EXPECT_NE(replay_config.Fingerprint(), config.Fingerprint());

  // The replayed arrival stream is the original, element for element.
  const auto replayed_arrivals = replay->Arrivals(
      snapshot.population, config.ScaledProfiles(), config.MakeCalendar(),
      config.seed);
  ASSERT_EQ(replayed_arrivals.size(), arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    ASSERT_EQ(replayed_arrivals[i].time, arrivals[i].time) << "arrival " << i;
    ASSERT_EQ(replayed_arrivals[i].function, arrivals[i].function) << "arrival " << i;
  }

  const core::Experiment replayed(replay_config);
  const core::ExperimentResult serial = replayed.Run(nullptr, 1);
  const core::ExperimentResult sharded = replayed.Run(nullptr, 4);
  ASSERT_GT(sharded.shards, 1u);

  const uint64_t want = trace::Digest(original.store);
  EXPECT_EQ(trace::Digest(serial.store), want);
  EXPECT_EQ(trace::Digest(sharded.store), want);
  // Per-region cold-start aggregates reproduce exactly, serial and sharded.
  EXPECT_EQ(serial.visible_cold_starts, original.visible_cold_starts);
  EXPECT_EQ(sharded.visible_cold_starts, original.visible_cold_starts);
  EXPECT_EQ(serial.cold_start_latency_sum_us, original.cold_start_latency_sum_us);
  EXPECT_EQ(sharded.cold_start_latency_sum_us, original.cold_start_latency_sum_us);
  EXPECT_EQ(serial.scratch_allocations, original.scratch_allocations);
  EXPECT_EQ(sharded.scratch_allocations, original.scratch_allocations);
}

// --- Replay of our own exported request log (approximate mode). ---

TEST_F(ReplayTest, RequestsCsvReplayDrivesASimulation) {
  core::ScenarioConfig config;
  config.days = 2;
  config.scale = 0.1;
  const core::ExperimentResult original = core::Experiment(config).Run();
  ASSERT_GT(original.store.requests().size(), 0u);
  ASSERT_TRUE(trace::WriteRequestsCsv(original.store, Path("requests.csv")));

  trace::CsvError error;
  std::shared_ptr<ReplaySource> replay =
      ReplaySource::FromRequestsCsv(Path("requests.csv"), {}, &error);
  ASSERT_NE(replay, nullptr) << "line " << error.line << ": " << error.message;
  EXPECT_EQ(replay->raw_event_count(), original.store.requests().size());

  core::ScenarioConfig replay_config = config;
  replay_config.workload = replay;
  const core::ExperimentResult result = core::Experiment(replay_config).Run();
  // The replayed log drives real load: requests flow and pods cold-start. The
  // trace is *not* expected to match bit for bit (logged timestamps are
  // execution starts, and recorded workflow children re-enter as exogenous
  // arrivals on top of runtime fan-out).
  EXPECT_GT(result.store.requests().size(), original.store.requests().size() / 2);
  int64_t cold = 0;
  for (const int64_t c : result.visible_cold_starts) {
    cold += c;
  }
  EXPECT_GT(cold, 0);
}

// --- External-trace semantics. ---

TEST_F(ReplayTest, ExternalCsvRemapsOntoPopulationRegions) {
  WriteFile("external.csv",
            "timestamp,function,region,duration\n"
            "1.5,alpha,,250\n"
            "0.5,beta,R2,100\n"
            "2.0,beta,R2,90\n");
  ReplayOptions options;
  options.timestamp_scale = 1e6;  // Seconds -> microseconds.
  trace::CsvError error;
  const auto source =
      ReplaySource::FromExternalCsv(Path("external.csv"), options, &error);
  ASSERT_NE(source, nullptr) << "line " << error.line << ": " << error.message;
  ASSERT_EQ(source->raw_event_count(), 3u);

  const auto pop = TinyPopulation({4, 4, 4});
  const auto profiles = TinyProfiles(3);
  workload::Calendar::Options copts;
  copts.trace_days = 1;
  const workload::Calendar calendar(copts);

  const auto arrivals = source->Arrivals(pop, profiles, calendar, /*seed=*/7);
  ASSERT_EQ(arrivals.size(), 3u);
  // Sorted by time, shifted to microseconds.
  EXPECT_EQ(arrivals[0].time, 500000);
  EXPECT_EQ(arrivals[1].time, 1500000);
  EXPECT_EQ(arrivals[2].time, 2000000);
  // "beta" is pinned to R2: both its events map to the same function id inside
  // region 1's id range.
  EXPECT_EQ(arrivals[0].function, arrivals[2].function);
  EXPECT_GE(arrivals[0].function, pop.region_begin[1]);
  EXPECT_LT(arrivals[0].function, pop.region_begin[2]);
  // "alpha" has no region tag and lands somewhere valid.
  EXPECT_LT(arrivals[1].function, pop.functions.size());

  // Remapping is seed-independent (the same trace hits the same functions
  // across platform-seed sweeps).
  const auto again = source->Arrivals(pop, profiles, calendar, /*seed=*/8);
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[0].function, arrivals[0].function);
  EXPECT_EQ(again[1].function, arrivals[1].function);
}

TEST_F(ReplayTest, WindowClippingShiftsAndDrops) {
  std::vector<ArrivalEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(ArrivalEvent{i * kSecond, 0});
  }
  ASSERT_TRUE(workload::WriteArrivalsCsv(events, Path("window.csv")));
  ReplayOptions options;
  options.window_begin = 3 * kSecond;
  options.window_end = 7 * kSecond;
  const auto source = ReplaySource::FromArrivalsCsv(Path("window.csv"), options);
  ASSERT_NE(source, nullptr);

  const auto pop = TinyPopulation({1});
  const auto profiles = TinyProfiles(1);
  const workload::Calendar calendar;
  const auto arrivals = source->Arrivals(pop, profiles, calendar, 1);
  ASSERT_EQ(arrivals.size(), 4u);  // Recorded times 3,4,5,6 s.
  for (size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].time, static_cast<SimTime>(i) * kSecond);
  }
}

TEST_F(ReplayTest, RateScalingIsDeterministicAndProportional) {
  std::vector<ArrivalEvent> events;
  for (int i = 0; i < 1000; ++i) {
    events.push_back(ArrivalEvent{i * kSecond, 0});
  }
  ASSERT_TRUE(workload::WriteArrivalsCsv(events, Path("rate.csv")));
  const auto pop = TinyPopulation({1});
  const auto profiles = TinyProfiles(1);
  const workload::Calendar calendar;  // 31 days; all events inside.

  ReplayOptions half;
  half.rate_scale = 0.5;
  const auto thinned = ReplaySource::FromArrivalsCsv(Path("rate.csv"), half);
  ASSERT_NE(thinned, nullptr);
  const auto a = thinned->Arrivals(pop, profiles, calendar, 3);
  const auto b = thinned->Arrivals(pop, profiles, calendar, 3);
  ASSERT_EQ(a.size(), b.size());  // Deterministic in the seed.
  EXPECT_GT(a.size(), 400u);      // ~Binomial(1000, 0.5).
  EXPECT_LT(a.size(), 600u);
  const auto other_seed = thinned->Arrivals(pop, profiles, calendar, 4);
  EXPECT_NE(other_seed.size(), 0u);

  ReplayOptions triple;
  triple.rate_scale = 3.0;
  const auto tripled = ReplaySource::FromArrivalsCsv(Path("rate.csv"), triple);
  ASSERT_NE(tripled, nullptr);
  EXPECT_EQ(tripled->Arrivals(pop, profiles, calendar, 3).size(), 3000u);
}

// --- Chunked delivery: OpenStream windows the recorded buffer by day. ---

TEST_F(ReplayTest, ChunkedStreamPartitionsEagerReplayUnderOptions) {
  // Recorded events straddle several day boundaries; replay them windowed +
  // rate-scaled, both eagerly and as day chunks, serial and region-filtered.
  // The chunk concatenation must reproduce the eager vector bit for bit (they
  // share the per-raw-index rate hash and remap salts), and the per-region
  // streams must partition it — the property each experiment shard relies on.
  std::vector<ArrivalEvent> events;
  for (int i = 0; i < 3000; ++i) {
    // 2-minute spacing: ~4.2 recorded days, so the 5-day replay below crosses
    // four day boundaries and leaves the last day empty (an edge chunk).
    events.push_back(ArrivalEvent{i * 2 * kMinute, static_cast<trace::FunctionId>(i % 3)});
  }
  ASSERT_TRUE(workload::WriteArrivalsCsv(events, Path("chunks.csv")));
  const auto pop = TinyPopulation({2, 1});  // Functions 0,1 in R1; 2 in R2.
  const auto profiles = TinyProfiles(2);
  workload::Calendar::Options copts;
  copts.trace_days = 5;
  const workload::Calendar calendar(copts);

  ReplayOptions options;
  options.window_begin = 6 * kHour;  // Shift: day boundaries cut mid-recording.
  options.rate_scale = 1.5;          // Whole copy + hashed extra copies.
  const auto source = ReplaySource::FromArrivalsCsv(Path("chunks.csv"), options);
  ASSERT_NE(source, nullptr);

  const auto eager = source->Arrivals(pop, profiles, calendar, 7);
  ASSERT_GT(eager.size(), 3000u);  // rate_scale > 1 engaged.
  ASSERT_LT(eager.back().time, calendar.horizon());

  auto stream = source->OpenStream(pop, profiles, calendar, 7);
  std::vector<ArrivalEvent> concat;
  std::vector<std::vector<ArrivalEvent>> per_day;
  workload::ArrivalChunk chunk;
  while (stream->NextChunk(&chunk)) {
    ASSERT_EQ(chunk.day, static_cast<int64_t>(per_day.size()));
    for (const auto& e : chunk.events) {
      ASSERT_GE(e.time, chunk.day * kDay);
      ASSERT_LT(e.time, (chunk.day + 1) * kDay);
    }
    per_day.push_back(chunk.events);
    concat.insert(concat.end(), chunk.events.begin(), chunk.events.end());
  }
  ASSERT_EQ(per_day.size(), 5u);
  ASSERT_EQ(concat.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    ASSERT_EQ(concat[i].time, eager[i].time) << i;
    ASSERT_EQ(concat[i].function, eager[i].function) << i;
  }

  // Region-filtered streams partition each day chunk, order preserved.
  for (size_t r = 0; r < profiles.size(); ++r) {
    auto filtered = source->OpenStream(pop, profiles, calendar, 7,
                                       static_cast<trace::RegionId>(r));
    for (size_t d = 0; d < per_day.size(); ++d) {
      ASSERT_TRUE(filtered->NextChunk(&chunk));
      std::vector<ArrivalEvent> expected;
      for (const auto& e : per_day[d]) {
        if (pop.functions[e.function].region == r) {
          expected.push_back(e);
        }
      }
      ASSERT_EQ(chunk.events.size(), expected.size()) << "region " << r << " day " << d;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(chunk.events[i].time, expected[i].time);
        ASSERT_EQ(chunk.events[i].function, expected[i].function);
      }
    }
    ASSERT_FALSE(filtered->NextChunk(&chunk));
  }
}

// --- Loader robustness. ---

TEST_F(ReplayTest, MalformedArrivalsCsvReportsLine) {
  WriteFile("bad.csv",
            "timestamp_us,function\n"
            "1000,0\n"
            "2000,not_an_id\n");
  trace::CsvError error;
  EXPECT_EQ(ReplaySource::FromArrivalsCsv(Path("bad.csv"), {}, &error), nullptr);
  EXPECT_EQ(error.line, 3);
  EXPECT_NE(error.message.find("not_an_id"), std::string::npos);
}

TEST_F(ReplayTest, MalformedExternalCsvReportsLine) {
  WriteFile("bad_external.csv",
            "timestamp,function\n"
            "1.0,ok\n"
            "-5,negative_time\n");
  trace::CsvError error;
  EXPECT_EQ(ReplaySource::FromExternalCsv(Path("bad_external.csv"), {}, &error),
            nullptr);
  EXPECT_EQ(error.line, 3);

  WriteFile("short_row.csv", "0.5\n");  // Headerless numeric row, too few fields.
  EXPECT_EQ(ReplaySource::FromExternalCsv(Path("short_row.csv"), {}, &error),
            nullptr);
  EXPECT_EQ(error.line, 1);
}

TEST_F(ReplayTest, MissingFileFails) {
  trace::CsvError error;
  EXPECT_EQ(ReplaySource::FromArrivalsCsv(Path("missing.csv"), {}, &error), nullptr);
  EXPECT_EQ(error.line, 0);
}

TEST_F(ReplayTest, ArrivalsCsvRoundTripIsLossless) {
  std::vector<ArrivalEvent> events = {{0, 3}, {42, 1}, {42, 2}, {kDay, 0}};
  ASSERT_TRUE(workload::WriteArrivalsCsv(events, Path("loop.csv")));
  std::vector<ArrivalEvent> loaded;
  ASSERT_TRUE(workload::ReadArrivalsCsv(Path("loop.csv"), loaded));
  ASSERT_EQ(loaded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].time, events[i].time);
    EXPECT_EQ(loaded[i].function, events[i].function);
  }
}

// Different replayed traces (and different options on one trace) fingerprint
// differently, while reloading the same file reproduces the same fingerprint.
TEST_F(ReplayTest, FingerprintCoversEventsAndOptions) {
  std::vector<ArrivalEvent> events = {{0, 0}, {kSecond, 0}};
  ASSERT_TRUE(workload::WriteArrivalsCsv(events, Path("fp_a.csv")));
  events[1].time += 1;
  ASSERT_TRUE(workload::WriteArrivalsCsv(events, Path("fp_b.csv")));

  const auto a1 = ReplaySource::FromArrivalsCsv(Path("fp_a.csv"));
  const auto a2 = ReplaySource::FromArrivalsCsv(Path("fp_a.csv"));
  const auto b = ReplaySource::FromArrivalsCsv(Path("fp_b.csv"));
  ReplayOptions scaled;
  scaled.rate_scale = 0.5;
  const auto a_scaled = ReplaySource::FromArrivalsCsv(Path("fp_a.csv"), scaled);
  ASSERT_TRUE(a1 && a2 && b && a_scaled);
  EXPECT_EQ(a1->Fingerprint(), a2->Fingerprint());
  EXPECT_NE(a1->Fingerprint(), b->Fingerprint());
  EXPECT_NE(a1->Fingerprint(), a_scaled->Fingerprint());
  EXPECT_NE(a1->Fingerprint(), workload::DefaultSyntheticSource().Fingerprint());
}

}  // namespace
}  // namespace coldstart
