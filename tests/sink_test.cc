// Trace-sink layer tests: the streaming aggregates sink must reproduce the exact
// store-derived statistics — per-region cold-start counts and integer latency sums
// bit for bit — in serial AND sharded execution, so month/year-scale streaming runs
// are trustworthy stand-ins for full-trace runs. Also pins the RunCached misuse
// guard (policy runs must never touch the baseline cache), and the request-resource
// capability: a sink that does not read cpu/memory skips the draws without moving
// the RNG stream.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/coldstart_lab.h"
#include "trace/streaming_aggregates.h"
#include "whole_run_plan.h"

namespace coldstart {
namespace {

using core::Experiment;
using core::ExperimentResult;
using core::ScenarioConfig;
using core::TraceMode;
using trace::StreamCounters;
using trace::StreamingAggregates;
using trace::TriggerGroup;

void ExpectCountersEqual(const StreamCounters& a, const StreamCounters& b,
                         const std::string& what) {
  EXPECT_EQ(a.requests, b.requests) << what;
  EXPECT_EQ(a.cold_starts, b.cold_starts) << what;
  EXPECT_EQ(a.pods, b.pods) << what;
  EXPECT_EQ(a.cold_start_latency_sum_us, b.cold_start_latency_sum_us) << what;
  EXPECT_EQ(a.execution_time_sum_us, b.execution_time_sum_us) << what;
  EXPECT_EQ(a.pod_lifetime_sum_us, b.pod_lifetime_sum_us) << what;
  EXPECT_EQ(a.pod_requests_served, b.pod_requests_served) << what;
}

void ExpectHistogramsEqual(const LogHistogram& a, const LogHistogram& b,
                           const std::string& what) {
  ASSERT_EQ(a.num_buckets(), b.num_buckets()) << what;
  EXPECT_EQ(a.total_count(), b.total_count()) << what;
  for (int i = 0; i < a.num_buckets(); ++i) {
    ASSERT_EQ(a.bucket_count(i), b.bucket_count(i)) << what << " bucket " << i;
  }
  if (a.total_count() > 0) {
    EXPECT_DOUBLE_EQ(a.min_recorded(), b.min_recorded()) << what;
    EXPECT_DOUBLE_EQ(a.max_recorded(), b.max_recorded()) << what;
    // Quantiles derive from bucket counts + the min/max clamp, so they agree to
    // the last bit whenever the above do.
    for (const double q : {0.1, 0.5, 0.9, 0.99}) {
      EXPECT_DOUBLE_EQ(a.Quantile(q), b.Quantile(q)) << what << " q=" << q;
    }
  }
}

void ExpectAggregatesEqual(const StreamingAggregates& a,
                           const StreamingAggregates& b) {
  EXPECT_EQ(a.horizon(), b.horizon());
  EXPECT_EQ(a.num_functions(), b.num_functions());
  ASSERT_EQ(a.num_regions(), b.num_regions());
  for (size_t r = 0; r < a.num_regions(); ++r) {
    const auto region = static_cast<trace::RegionId>(r);
    const std::string where = "region " + std::to_string(r);
    EXPECT_EQ(a.functions_in_region(region), b.functions_in_region(region));
    ExpectCountersEqual(a.region(region), b.region(region), where);
    ExpectHistogramsEqual(a.cold_start_hist(region), b.cold_start_hist(region),
                          where + " cold-start hist");
    ExpectHistogramsEqual(a.request_hist(region), b.request_hist(region),
                          where + " request hist");
    ExpectHistogramsEqual(a.pod_lifetime_hist(region), b.pod_lifetime_hist(region),
                          where + " pod hist");
    for (int g = 0; g < trace::kNumTriggerGroups; ++g) {
      const auto group = static_cast<TriggerGroup>(g);
      const std::string gwhere = where + " group " + trace::TriggerGroupName(group);
      ExpectCountersEqual(a.group(region, group), b.group(region, group), gwhere);
      ExpectHistogramsEqual(a.group_cold_start_hist(region, group),
                            b.group_cold_start_hist(region, group),
                            gwhere + " hist");
    }
  }
}

ScenarioConfig TestScenario() {
  ScenarioConfig config = core::SmallScenario();
  config.trace_mode = TraceMode::kStreaming;
  return config;
}

// --- TraceStore is itself a sink: the On* interface appends records. ---

TEST(TraceSinkTest, TraceStoreImplementsSinkInterface) {
  trace::TraceStore store;
  trace::TraceSink& sink = store;
  trace::FunctionRecord f;
  f.function_id = 0;
  f.region = 2;
  sink.OnFunction(f);
  trace::RequestRecord req;
  req.region = 2;
  sink.OnRequest(req);
  trace::ColdStartRecord cs;
  cs.region = 2;
  sink.OnColdStart(cs);
  trace::PodLifetimeRecord pod;
  pod.region = 2;
  sink.OnPodLifetime(pod);
  sink.OnHorizon(123);
  EXPECT_EQ(store.functions().size(), 1u);
  EXPECT_EQ(store.requests().size(), 1u);
  EXPECT_EQ(store.cold_starts().size(), 1u);
  EXPECT_EQ(store.pods().size(), 1u);
  EXPECT_EQ(store.horizon(), 123);
}

// --- Request-resource capability: skipping unread draws never moves the stream. ---

TEST(TraceSinkTest, TraceStoreReadsRequestResourcesStreamingDoesNot) {
  const trace::TraceStore store;
  const StreamingAggregates aggregates;
  EXPECT_TRUE(store.reads_request_resources());
  EXPECT_FALSE(aggregates.reads_request_resources());
}

TEST(TraceSinkTest, FullTraceRecordsRequestResourcesWithinConfigBounds) {
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  ASSERT_EQ(config.trace_mode, TraceMode::kFull);
  const ExperimentResult full = Experiment(config).Run(nullptr, 1);
  const trace::TraceStore& store = full.store;
  ASSERT_GT(store.requests().size(), 1000u);
  for (const trace::RequestRecord& r : store.requests()) {
    const trace::ResourceConfig c = store.functions()[r.function_id].config;
    ASSERT_GE(r.cpu_millicores, 5) << "function " << r.function_id;
    ASSERT_LE(r.cpu_millicores, trace::CpuMillicoresOf(c)) << "function " << r.function_id;
    ASSERT_GE(r.memory_kb, 1024u) << "function " << r.function_id;
    ASSERT_LE(r.memory_kb, 1024u * static_cast<uint32_t>(trace::MemoryMbOf(c)))
        << "function " << r.function_id;
  }
}

// A decorator that forwards every hook and does not override the capability,
// so the platform keeps drawing the resources it hands through.
class ForwardingSink final : public trace::TraceSink {
 public:
  explicit ForwardingSink(trace::TraceSink& target) : target_(target) {}
  void OnFunction(const trace::FunctionRecord& r) override { target_.OnFunction(r); }
  void OnRequest(const trace::RequestRecord& r) override {
    requests_with_resources_ += (r.cpu_millicores > 0 && r.memory_kb > 0) ? 1 : 0;
    target_.OnRequest(r);
  }
  void OnColdStart(const trace::ColdStartRecord& r) override { target_.OnColdStart(r); }
  void OnPodLifetime(const trace::PodLifetimeRecord& r) override {
    target_.OnPodLifetime(r);
  }
  void OnHorizon(SimTime horizon) override { target_.OnHorizon(horizon); }
  void OnRegionCost(const trace::RegionCostRecord& r) override {
    target_.OnRegionCost(r);
  }
  uint64_t requests_with_resources() const { return requests_with_resources_; }

 private:
  trace::TraceSink& target_;
  uint64_t requests_with_resources_ = 0;
};

TEST(TraceSinkTest, ForwardingDecoratorDrawsAndMatchesDirectStreaming) {
  ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  const workload::Calendar calendar = config.MakeCalendar();
  const auto profiles = config.ScaledProfiles();
  const workload::Population pop = workload::GeneratePopulation(profiles, config.seed);
  auto run = [&](trace::TraceSink& sink) {
    sim::Simulator sim;
    platform::Platform::Options options;
    options.seed = config.seed;
    options.default_keep_alive = config.default_keep_alive;
    platform::Platform platform(pop, profiles, calendar, sim, sink, options);
    platform.AttachArrivalStream(
        config.workload_source().OpenStream(pop, profiles, calendar, config.seed));
    sim.RunUntil(calendar.horizon());
    platform.Finalize();
  };

  StreamingAggregates direct;
  run(direct);
  StreamingAggregates forwarded;
  ForwardingSink decorator(forwarded);
  ASSERT_TRUE(decorator.reads_request_resources());
  run(decorator);

  ASSERT_GT(direct.Totals().requests, 1000u);
  // The decorator got drawn resources on every request; the direct sink's
  // platform discarded them. Both left the RNG at the same place after each
  // request, so every later draw and every aggregate agrees.
  EXPECT_EQ(decorator.requests_with_resources(), forwarded.Totals().requests);
  ExpectAggregatesEqual(direct, forwarded);
  for (size_t r = 0; r < direct.num_regions(); ++r) {
    const auto region = static_cast<trace::RegionId>(r);
    EXPECT_EQ(direct.request_hist(region).sum(), forwarded.request_hist(region).sum());
    EXPECT_EQ(direct.cold_start_hist(region).sum(),
              forwarded.cold_start_hist(region).sum());
  }
}

// --- Acceptance pin: streaming == exact-store-derived aggregates, serial AND
// sharded, and both match the platform's own per-region counters. ---

TEST(StreamingAggregatesTest, StreamingMatchesStoreDerivedAggregatesOnSmallScenario) {
  ScenarioConfig full_config = core::SmallScenario();
  ASSERT_EQ(full_config.trace_mode, TraceMode::kFull);
  const Experiment full_experiment(full_config);
  const ExperimentResult full = full_experiment.Run(nullptr, /*num_threads=*/1);
  ASSERT_GT(full.store.requests().size(), 10000u);
  const StreamingAggregates reference = trace::AggregatesFromStore(full.store);

  const Experiment streaming_experiment(TestScenario());
  const ExperimentResult serial = testing_support::RunWholePlan(streaming_experiment);
  const ExperimentResult sharded = streaming_experiment.Run(nullptr, 4);
  EXPECT_EQ(serial.mode, TraceMode::kStreaming);
  // Streaming runs materialize nothing.
  EXPECT_TRUE(serial.store.requests().empty());
  EXPECT_TRUE(serial.store.cold_starts().empty());
  EXPECT_TRUE(sharded.store.requests().empty());

  ExpectAggregatesEqual(reference, serial.streaming);
  ExpectAggregatesEqual(reference, sharded.streaming);

  // Cross-check against the platform's own aggregate counters, and pin the
  // acceptance numbers explicitly: per-region cold-start counts and latency sums.
  ASSERT_EQ(serial.streaming.num_regions(), full.visible_cold_starts.size());
  for (size_t r = 0; r < serial.streaming.num_regions(); ++r) {
    const auto region = static_cast<trace::RegionId>(r);
    EXPECT_EQ(static_cast<int64_t>(serial.streaming.region(region).cold_starts),
              full.visible_cold_starts[r]);
    EXPECT_EQ(static_cast<int64_t>(
                  serial.streaming.region(region).cold_start_latency_sum_us),
              full.cold_start_latency_sum_us[r]);
    EXPECT_EQ(sharded.streaming.region(region).cold_starts,
              serial.streaming.region(region).cold_starts);
    EXPECT_EQ(sharded.streaming.region(region).cold_start_latency_sum_us,
              serial.streaming.region(region).cold_start_latency_sum_us);
  }
  EXPECT_EQ(serial.streaming.horizon(), full.store.horizon());
  EXPECT_GT(serial.streaming.Totals().cold_starts, 0u);
}

TEST(StreamingAggregatesTest, ShardedStreamingBitIdenticalIncludingFloatSums) {
  // Per-region accumulators see the identical record sequence at any thread
  // count, so even the order-sensitive float histogram sums agree bit for bit.
  ScenarioConfig config = TestScenario();
  config.days = 3;
  const Experiment experiment(config);
  const ExperimentResult serial = testing_support::RunWholePlan(experiment);
  const ExperimentResult sharded = experiment.Run(nullptr, 4);
  ExpectAggregatesEqual(serial.streaming, sharded.streaming);
  for (size_t r = 0; r < serial.streaming.num_regions(); ++r) {
    const auto region = static_cast<trace::RegionId>(r);
    EXPECT_EQ(serial.streaming.cold_start_hist(region).sum(),
              sharded.streaming.cold_start_hist(region).sum());
    EXPECT_EQ(serial.streaming.request_hist(region).sum(),
              sharded.streaming.request_hist(region).sum());
    EXPECT_EQ(serial.streaming.pod_lifetime_hist(region).sum(),
              sharded.streaming.pod_lifetime_hist(region).sum());
  }
}

TEST(StreamingAggregatesTest, StreamingWorksUnderRegionLocalPolicy) {
  ScenarioConfig config = TestScenario();
  config.days = 3;
  config.record_requests = false;
  const Experiment experiment(config);
  policy::TimerAwarePrewarmPolicy serial_policy;
  const ExperimentResult serial = testing_support::RunWholePlan(experiment, &serial_policy);
  policy::TimerAwarePrewarmPolicy sharded_policy;
  const ExperimentResult sharded = experiment.Run(&sharded_policy, 4);
  EXPECT_GT(serial_policy.prewarms_issued(), 0);
  EXPECT_EQ(serial_policy.prewarms_issued(), sharded_policy.prewarms_issued());
  ExpectAggregatesEqual(serial.streaming, sharded.streaming);
  // record_requests=false suppresses request records in both modes.
  EXPECT_EQ(serial.streaming.Totals().requests, 0u);
  EXPECT_GT(serial.streaming.Totals().cold_starts, 0u);
}

// --- Unit-level sink behavior. ---

TEST(StreamingAggregatesTest, GroupRollupsFoldAcrossRegions) {
  StreamingAggregates agg;
  trace::FunctionRecord f0;
  f0.function_id = 0;
  f0.region = 0;
  f0.primary_trigger = trace::Trigger::kTimer;
  agg.OnFunction(f0);
  trace::FunctionRecord f1;
  f1.function_id = 1;
  f1.region = 2;
  f1.primary_trigger = trace::Trigger::kApigSync;
  agg.OnFunction(f1);

  trace::ColdStartRecord cs;
  cs.function_id = 0;
  cs.region = 0;
  cs.cold_start_us = 2'000'000;  // 2 s.
  agg.OnColdStart(cs);
  cs.function_id = 1;
  cs.region = 2;
  cs.cold_start_us = 500'000;  // 0.5 s.
  agg.OnColdStart(cs);
  agg.OnHorizon(1000);

  EXPECT_EQ(agg.num_regions(), 3u);
  EXPECT_EQ(agg.GroupTotals(TriggerGroup::kTimerA).cold_starts, 1u);
  EXPECT_EQ(agg.GroupTotals(TriggerGroup::kApigS).cold_starts, 1u);
  EXPECT_EQ(agg.GroupTotals(TriggerGroup::kObsA).cold_starts, 0u);
  EXPECT_EQ(agg.Totals().cold_start_latency_sum_us, 2'500'000u);
  EXPECT_EQ(agg.region(0).cold_starts, 1u);
  EXPECT_EQ(agg.region(1).cold_starts, 0u);
  EXPECT_EQ(agg.GroupColdStartHist(TriggerGroup::kTimerA).total_count(), 1u);
  EXPECT_NEAR(agg.MergedColdStartHist().Quantile(0.99), 2.0, 0.1);
  // Out-of-range region queries return empty state rather than crashing.
  EXPECT_EQ(agg.region(7).cold_starts, 0u);
  EXPECT_TRUE(std::isnan(agg.cold_start_hist(7).Quantile(0.5)));
}

TEST(StreamingAggregatesTest, MergeFromAddsEventStateKeepsFunctionTable) {
  auto make = [](uint32_t cold_start_us) {
    StreamingAggregates agg;
    trace::FunctionRecord f;
    f.function_id = 0;
    f.region = 1;
    f.primary_trigger = trace::Trigger::kObs;
    agg.OnFunction(f);
    trace::ColdStartRecord cs;
    cs.function_id = 0;
    cs.region = 1;
    cs.cold_start_us = cold_start_us;
    agg.OnColdStart(cs);
    return agg;
  };
  StreamingAggregates a = make(1'000'000);
  const StreamingAggregates b = make(3'000'000);
  a.MergeFrom(b);
  // Event state added; the replicated function table is kept, not doubled.
  EXPECT_EQ(a.num_functions(), 1u);
  EXPECT_EQ(a.functions_in_region(1), 1u);
  EXPECT_EQ(a.region(1).cold_starts, 2u);
  EXPECT_EQ(a.region(1).cold_start_latency_sum_us, 4'000'000u);
  EXPECT_EQ(a.GroupTotals(TriggerGroup::kObsA).cold_starts, 2u);

  // Merging into a default-constructed sink adopts everything.
  StreamingAggregates empty;
  empty.MergeFrom(a);
  EXPECT_EQ(empty.num_functions(), 1u);
  EXPECT_EQ(empty.region(1).cold_starts, 2u);
}

TEST(StreamingAggregatesDeathTest, HugeRegionCountDiesOnBoundsCheck) {
  // A stored region count too large for the bytes left dies on the reader's
  // bounds CHECK, not in the allocator (a slot is ~39 KB in memory).
  ByteWriter w;
  w.I64(0);                  // Horizon.
  w.U64(0);                  // No functions.
  w.U64(uint64_t{1} << 40);  // Region slots.
  ByteReader r(w.data());
  StreamingAggregates aggregates;
  EXPECT_DEATH(aggregates.RestoreState(r),
               "CHECK failed: n <= Remaining\\(\\) / min_bytes_per_element");
}

// --- RunCached misuse guards. ---

TEST(RunCachedGuardDeathTest, RejectsPolicyRuns) {
  // The header has always said "policy runs must use Run()"; this pins the
  // enforcement — a policy run reaching the cache would silently poison the
  // baseline for every later reader.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScenarioConfig config = core::SmallScenario();
  config.days = 1;
  config.scale = 0.05;
  const Experiment experiment(config);
  policy::TimerAwarePrewarmPolicy policy;
  EXPECT_DEATH(experiment.RunCached("/tmp/coldstart_guard_test_cache", &policy),
               "RunCached is baseline-only");
}

TEST(RunCachedGuardDeathTest, RejectsStreamingMode) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScenarioConfig config = TestScenario();
  config.days = 1;
  config.scale = 0.05;
  const Experiment experiment(config);
  EXPECT_DEATH(experiment.RunCached("/tmp/coldstart_guard_test_cache"),
               "requires TraceMode::kFull");
}

}  // namespace
}  // namespace coldstart
