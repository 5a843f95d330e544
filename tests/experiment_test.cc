// Experiment-runner tests: sharded-vs-serial bit identity, cache-hit aggregate
// fidelity, and fingerprint sensitivity — the contracts the parallel execution
// layer and the trace cache are built on.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <utility>

#include "common/byte_serde.h"
#include "core/coldstart_lab.h"
#include "whole_run_plan.h"

namespace coldstart {
namespace {

using core::Experiment;
using core::ExperimentResult;
using core::ScenarioConfig;

// Field-wise equality for every record table (memcmp would also compare padding
// bytes, whose values the language does not pin down).
void ExpectStoresIdentical(const trace::TraceStore& a, const trace::TraceStore& b) {
  EXPECT_EQ(a.horizon(), b.horizon());
  ASSERT_EQ(a.functions().size(), b.functions().size());
  for (size_t i = 0; i < a.functions().size(); ++i) {
    const auto& x = a.functions()[i];
    const auto& y = b.functions()[i];
    ASSERT_TRUE(x.function_id == y.function_id && x.user_id == y.user_id &&
                x.region == y.region && x.runtime == y.runtime &&
                x.primary_trigger == y.primary_trigger &&
                x.trigger_mask == y.trigger_mask && x.config == y.config)
        << "function record " << i << " differs";
  }
  ASSERT_EQ(a.requests().size(), b.requests().size());
  for (size_t i = 0; i < a.requests().size(); ++i) {
    const auto& x = a.requests()[i];
    const auto& y = b.requests()[i];
    ASSERT_TRUE(x.timestamp == y.timestamp && x.request_id == y.request_id &&
                x.pod_id == y.pod_id && x.function_id == y.function_id &&
                x.user_id == y.user_id && x.region == y.region &&
                x.cluster == y.cluster && x.cpu_millicores == y.cpu_millicores &&
                x.execution_time_us == y.execution_time_us &&
                x.memory_kb == y.memory_kb)
        << "request record " << i << " differs";
  }
  ASSERT_EQ(a.cold_starts().size(), b.cold_starts().size());
  for (size_t i = 0; i < a.cold_starts().size(); ++i) {
    const auto& x = a.cold_starts()[i];
    const auto& y = b.cold_starts()[i];
    ASSERT_TRUE(x.timestamp == y.timestamp && x.pod_id == y.pod_id &&
                x.function_id == y.function_id && x.user_id == y.user_id &&
                x.region == y.region && x.cluster == y.cluster &&
                x.cold_start_us == y.cold_start_us && x.pod_alloc_us == y.pod_alloc_us &&
                x.deploy_code_us == y.deploy_code_us &&
                x.deploy_dep_us == y.deploy_dep_us &&
                x.scheduling_us == y.scheduling_us)
        << "cold-start record " << i << " differs";
  }
  ASSERT_EQ(a.pods().size(), b.pods().size());
  for (size_t i = 0; i < a.pods().size(); ++i) {
    const auto& x = a.pods()[i];
    const auto& y = b.pods()[i];
    ASSERT_TRUE(x.pod_id == y.pod_id && x.function_id == y.function_id &&
                x.region == y.region && x.cluster == y.cluster && x.config == y.config &&
                x.cold_start_begin == y.cold_start_begin && x.ready_time == y.ready_time &&
                x.last_busy_end == y.last_busy_end && x.death_time == y.death_time &&
                x.cold_start_us == y.cold_start_us &&
                x.requests_served == y.requests_served)
        << "pod record " << i << " differs";
  }
}

void ExpectAggregatesIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.visible_cold_starts, b.visible_cold_starts);
  EXPECT_EQ(a.prewarm_spawns, b.prewarm_spawns);
  EXPECT_EQ(a.delayed_allocations, b.delayed_allocations);
  EXPECT_EQ(a.scratch_allocations, b.scratch_allocations);
  EXPECT_EQ(a.cold_start_latency_sum_us, b.cold_start_latency_sum_us);
  // Cost ledgers compare as serialized bytes: every 128-bit sum bit-identical.
  ByteWriter cost_a, cost_b;
  a.cost_ledger.SaveState(cost_a);
  b.cost_ledger.SaveState(cost_b);
  EXPECT_EQ(cost_a.data(), cost_b.data());
}

// --- Tentpole: the sharded runner reproduces the serial run bit for bit. ---

TEST(ShardedExperimentTest, BaselineBitIdenticalToSerialOnSmallScenario) {
  const Experiment experiment(core::SmallScenario());
  const ExperimentResult serial = experiment.Run(nullptr, /*num_threads=*/1);
  const ExperimentResult sharded = experiment.Run(nullptr, /*num_threads=*/4);
  ASSERT_GT(sharded.shards, 1u);
  ASSERT_GT(serial.store.requests().size(), 10000u);
  ExpectStoresIdentical(serial.store, sharded.store);
  ExpectAggregatesIdentical(serial, sharded);
}

TEST(ShardedExperimentTest, StreamedArrivalsBitIdenticalToEagerInjection) {
  // Tentpole acceptance: Experiment::Run now pulls day-chunked arrivals from the
  // workload source (serial: one unfiltered stream; sharded: one region-filtered
  // stream per shard). Feeding the same platform the fully materialized eager
  // vector instead must change nothing — the chunked pull is just a windowed
  // view of the same deterministic stream, and the day-anchored seq reservation
  // keeps the event total order identical.
  const core::ScenarioConfig config = core::SmallScenario();
  const Experiment experiment(config);
  const ExperimentResult serial = experiment.Run(nullptr, 1);
  const ExperimentResult sharded = experiment.Run(nullptr, 4);

  // Eager reference: materialize the whole arrival vector up front and attach
  // it as a pre-pulled stream, mirroring the whole-run shard by hand.
  core::WorkloadSnapshot snapshot = core::SnapshotWorkload(config);
  const workload::Calendar calendar = config.MakeCalendar();
  const auto profiles = config.ScaledProfiles();
  trace::TraceStore store;
  sim::Simulator sim;
  platform::Platform::Options options;
  options.seed = config.seed;
  options.record_requests = config.record_requests;
  options.default_keep_alive = config.default_keep_alive;
  platform::Platform platform(snapshot.population, profiles, calendar, sim, store,
                              options);
  platform.AttachArrivalStream(std::make_unique<workload::MaterializedArrivalStream>(
      std::move(snapshot.arrivals), workload::NumDayChunks(calendar)));
  sim.RunUntil(calendar.horizon());
  platform.Finalize();
  store.Seal();

  ASSERT_GT(store.requests().size(), 10000u);
  ExpectStoresIdentical(store, serial.store);
  ExpectStoresIdentical(store, sharded.store);
}

TEST(ShardedExperimentTest, RegionLocalPolicyBitIdenticalToSerial) {
  ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  config.record_requests = false;
  const Experiment experiment(config);

  auto make_policy = [] {
    auto combo = std::make_unique<policy::CompositePolicy>();
    combo->Add(std::make_unique<policy::TimerAwarePrewarmPolicy>())
        .Add(std::make_unique<policy::DynamicKeepAlivePolicy>())
        .Add(std::make_unique<policy::WorkflowPrewarmPolicy>())
        .Add(std::make_unique<policy::PeakShavingPolicy>());
    return combo;
  };
  auto serial_policy = make_policy();
  const ExperimentResult serial = experiment.Run(serial_policy.get(), 1);
  auto sharded_policy = make_policy();
  const ExperimentResult sharded = experiment.Run(sharded_policy.get(), 4);
  ASSERT_GT(sharded.shards, 1u);

  // The policies engaged (prewarms happened) and the runs still agree exactly.
  int64_t prewarms = 0;
  for (const int64_t p : sharded.prewarm_spawns) {
    prewarms += p;
  }
  EXPECT_GT(prewarms, 0);
  ExpectStoresIdentical(serial.store, sharded.store);
  ExpectAggregatesIdentical(serial, sharded);
}

// --- Tentpole: sub-region sharding (cells_per_region > 1) is bit-identical ---
// --- across every geometry: serial, region-sharded (K=1), and K=2 / K=4.  ---

TEST(SubRegionShardingTest, BaselineBitIdenticalAcrossGeometries) {
  // The planner takes K = cells for a function-local run, so the geometries
  // come from the scenario: cells 1, 2 and 4 shard as K = 1 (plain region
  // sharding), 2 and 4. Each sharded run must equal its own serial run.
  for (const uint32_t cells : {1u, 2u, 4u}) {
    SCOPED_TRACE(cells);
    ScenarioConfig config = core::SmallScenario();
    config.days = 3;
    config.cells_per_region = cells;
    const Experiment experiment(config);
    const ExperimentResult serial = experiment.Run(nullptr, /*num_threads=*/1);
    const ExperimentResult sharded = experiment.Run(nullptr, /*num_threads=*/4);
    ASSERT_GT(sharded.shards, 1u);
    ASSERT_GT(serial.store.requests().size(), 10000u);
    ExpectStoresIdentical(serial.store, sharded.store);
    ExpectAggregatesIdentical(serial, sharded);
  }
}

// The plan a run used, read back from the manifest of a run stopped at its
// first day boundary: its shard count, one manifest day per shard.
size_t PlanOf(const ScenarioConfig& config, platform::PlatformPolicy* policy, int threads) {
  namespace fs = std::filesystem;
  const std::string dir = (fs::temp_directory_path() / "coldstart_plan_test").string();
  fs::remove_all(dir);
  std::atomic<bool> stop{true};
  core::CheckpointPolicy ckpt;
  ckpt.dir = dir;
  ckpt.stop = &stop;
  const ExperimentResult r = Experiment(config).Run(policy, threads, &ckpt);
  EXPECT_EQ(r.interrupted_at_day, 1);
  checkpoint::Manifest manifest;
  EXPECT_TRUE(checkpoint::ReadManifest(dir, &manifest));
  EXPECT_EQ(manifest.days.size(), r.shards);
  fs::remove_all(dir);
  return manifest.days.size();
}

TEST(ShardPlannerTest, GeometryComesFromTheScenarioNotTheThreadCount) {
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.05;
  config.record_requests = false;
  config.cells_per_region = 4;
  const size_t regions = config.profiles.size();
  for (const int threads : {2, 3, 4, 5, 20}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(PlanOf(config, nullptr, threads), regions * 4);
  }
  // A capacity-coupled policy keeps whole regions.
  policy::PeakShavingPolicy peak_shaving;
  EXPECT_EQ(PlanOf(config, &peak_shaving, 20), regions);
  // One thread under a CheckpointPolicy is the whole-run plan.
  EXPECT_EQ(PlanOf(config, nullptr, 1), 1u);
}

TEST(ShardPlannerTest, OneThreadShardsWhereShardsFoldForFree) {
  // On one thread the shards run back to back, so the planner shards only
  // where a shard adds no table merge and no checkpoint commits: a streaming
  // sink without a CheckpointPolicy.
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.05;
  config.record_requests = false;
  config.cells_per_region = 4;
  config.trace_mode = core::TraceMode::kStreaming;
  const size_t regions = config.profiles.size();
  EXPECT_EQ(Experiment(config).Run(nullptr, 1).shards, regions * 4);
  // A capacity-coupled policy keeps whole regions.
  policy::PeakShavingPolicy peak_shaving;
  EXPECT_EQ(Experiment(config).Run(&peak_shaving, 1).shards, regions);
  // Checkpointed streaming keeps the whole-run plan.
  EXPECT_EQ(PlanOf(config, nullptr, 1), 1u);
  // So does a full trace.
  config.trace_mode = core::TraceMode::kFull;
  EXPECT_EQ(Experiment(config).Run(nullptr, 1).shards, 1u);
  EXPECT_EQ(Experiment(config).Run(nullptr, 4).shards, regions * 4);
}

TEST(ShardPlannerTest, OneThreadShardPlanEqualsWholeRunPlanUnderAPolicy) {
  // The same one-thread streaming run on both plans: uncheckpointed it shards
  // (one policy clone per shard, made as the shard starts), checkpointed it is
  // one shard driven by the caller's instance. The aggregates and the policy
  // counters folded back into the prototype agree.
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.2;
  config.record_requests = false;
  config.cells_per_region = 4;
  config.trace_mode = core::TraceMode::kStreaming;
  const Experiment experiment(config);
  policy::TimerAwarePrewarmPolicy sharded_policy;
  const ExperimentResult sharded = experiment.Run(&sharded_policy, 1);
  EXPECT_EQ(sharded.shards, config.profiles.size() * 4);
  policy::TimerAwarePrewarmPolicy whole_policy;
  const ExperimentResult whole = testing_support::RunWholePlan(experiment, &whole_policy);

  EXPECT_GT(sharded_policy.prewarms_issued(), 0);
  EXPECT_EQ(sharded_policy.prewarms_issued(), whole_policy.prewarms_issued());
  ExpectAggregatesIdentical(sharded, whole);
  ByteWriter sharded_bytes;
  sharded.streaming.SaveState(sharded_bytes);
  ByteWriter whole_bytes;
  whole.streaming.SaveState(whole_bytes);
  EXPECT_EQ(sharded_bytes.data(), whole_bytes.data());
}

TEST(SubRegionShardingTest, StreamingAggregatesBitIdenticalAcrossGeometries) {
  // kStreaming merges per-shard accumulators instead of record tables; every
  // accumulator must be partition-invariant for K > 1 to be exact.
  ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  config.record_requests = false;
  config.cells_per_region = 4;
  config.trace_mode = core::TraceMode::kStreaming;
  const Experiment experiment(config);
  const ExperimentResult serial = testing_support::RunWholePlan(experiment);
  const ExperimentResult k4 = experiment.Run(nullptr, 20);
  ExpectAggregatesIdentical(serial, k4);
  // Byte-level identity of the full aggregate state (counters, fixed-point
  // latency sums, histogram buckets), not just the headline numbers.
  ByteWriter serial_bytes;
  serial.streaming.SaveState(serial_bytes);
  ByteWriter k4_bytes;
  k4.streaming.SaveState(k4_bytes);
  EXPECT_EQ(serial_bytes.data(), k4_bytes.data());
}

TEST(SubRegionShardingTest, FunctionLocalPolicyBitIdenticalAcrossGeometries) {
  ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  config.record_requests = false;
  config.cells_per_region = 4;
  const Experiment experiment(config);

  // Every member is function-local, so the composite clears the K > 1 gate.
  auto make_policy = [] {
    auto combo = std::make_unique<policy::CompositePolicy>();
    combo->Add(std::make_unique<policy::TimerAwarePrewarmPolicy>())
        .Add(std::make_unique<policy::DynamicKeepAlivePolicy>())
        .Add(std::make_unique<policy::WorkflowPrewarmPolicy>());
    return combo;
  };
  auto serial_policy = make_policy();
  ASSERT_TRUE(serial_policy->is_function_local());
  const ExperimentResult serial = experiment.Run(serial_policy.get(), 1);
  auto k4_policy = make_policy();
  const ExperimentResult k4 = experiment.Run(k4_policy.get(), 20);

  int64_t prewarms = 0;
  for (const int64_t p : k4.prewarm_spawns) {
    prewarms += p;
  }
  EXPECT_GT(prewarms, 0);
  ExpectStoresIdentical(serial.store, k4.store);
  ExpectAggregatesIdentical(serial, k4);
}

TEST(SubRegionShardingTest, RegionCoupledPolicyKeepsRegionGeometry) {
  // PeakShaving reads region-wide load, so it must never be split below a
  // region: the planner keeps K=1 (still region-shardable) and results match
  // serial exactly.
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.2;
  config.record_requests = false;
  config.cells_per_region = 4;
  const Experiment experiment(config);
  policy::PeakShavingPolicy serial_policy;
  EXPECT_FALSE(serial_policy.is_function_local());
  const ExperimentResult serial = experiment.Run(&serial_policy, 1);
  policy::PeakShavingPolicy sharded_policy;
  const ExperimentResult sharded = experiment.Run(&sharded_policy, 20);
  ExpectStoresIdentical(serial.store, sharded.store);
  ExpectAggregatesIdentical(serial, sharded);
}

TEST(ShardedExperimentTest, ShardedRunFoldsPolicyCountersIntoPrototype) {
  // policy.prewarms_issued() must read the same total whether the run sharded
  // (counters accumulate in per-shard clones, folded back via AbsorbShardStats)
  // or ran serially — results must never depend on the machine's core count.
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.2;
  config.record_requests = false;
  const Experiment experiment(config);
  policy::TimerAwarePrewarmPolicy serial_policy;
  experiment.Run(&serial_policy, 1);
  policy::TimerAwarePrewarmPolicy sharded_policy;
  experiment.Run(&sharded_policy, 4);
  EXPECT_GT(serial_policy.prewarms_issued(), 0);
  EXPECT_EQ(serial_policy.prewarms_issued(), sharded_policy.prewarms_issued());
}

TEST(ShardedExperimentTest, CrossRegionPolicyFallsBackToSerial) {
  const Experiment experiment(core::SmallScenario());
  policy::CrossRegionPolicy cross;
  EXPECT_FALSE(cross.is_region_local());
  EXPECT_EQ(experiment.Run(&cross, 4).shards, 1u);
  // Composites inherit non-shardability from any member.
  policy::CompositePolicy combo;
  combo.Add(std::make_unique<policy::CrossRegionPolicy>());
  EXPECT_FALSE(combo.is_region_local());
  EXPECT_EQ(experiment.Run(&combo, 4).shards, 1u);
}

TEST(ShardedExperimentTest, UnclonableRegionLocalPolicyRunsAsOneShard) {
  // A region-local policy that cannot clone per-shard state gets the whole-run
  // plan at any thread count: one shard, driven by the caller's own instance,
  // so every arrival reaches it and the trace matches the one-thread run.
  struct ArrivalCounter : platform::PlatformPolicy {
    void OnArrival(const workload::FunctionSpec&, SimTime) override { ++arrivals; }
    int64_t arrivals = 0;
  };
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  const Experiment experiment(config);
  ArrivalCounter a;
  ArrivalCounter b;
  const ExperimentResult one = experiment.Run(&a, 1);
  const ExperimentResult four = experiment.Run(&b, 4);
  EXPECT_EQ(four.shards, 1u);
  EXPECT_EQ(trace::Digest(one.store), trace::Digest(four.store));
  EXPECT_EQ(one.events_processed, four.events_processed);
  EXPECT_GT(a.arrivals, 0);
  EXPECT_EQ(a.arrivals, b.arrivals);
}

// --- Satellite: cache hits restore the per-region aggregates. ---

TEST(ExperimentCacheTest, CachedAggregatesMatchFreshRun) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "coldstart_agg_cache_test";
  fs::remove_all(dir);
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.2;
  const Experiment experiment(config);
  const ExperimentResult fresh = experiment.RunCached(dir.string());
  ASSERT_FALSE(fresh.from_cache);
  const ExperimentResult cached = experiment.RunCached(dir.string());
  ASSERT_TRUE(cached.from_cache);

  ExpectAggregatesIdentical(fresh, cached);
  EXPECT_EQ(fresh.events_processed, cached.events_processed);
  // The regression this pins: cache hits used to come back with all-zero counters.
  int64_t visible = 0;
  for (const int64_t v : cached.visible_cold_starts) {
    visible += v;
  }
  EXPECT_GT(visible, 0);
  EXPECT_GT(cached.events_processed, 0u);
  EXPECT_EQ(static_cast<size_t>(visible), cached.store.cold_starts().size());
  ExpectStoresIdentical(fresh.store, cached.store);
  fs::remove_all(dir);
}

// --- Satellite: the fingerprint covers every generation-relevant field. ---

TEST(ScenarioFingerprintTest, DistinguishesEveryFieldClass) {
  const ScenarioConfig base;
  std::set<uint64_t> seen{base.Fingerprint()};
  // Each mutation must produce a fingerprint unseen so far (distinct from the base
  // and from every other mutation).
  auto expect_fresh = [&seen](const ScenarioConfig& config, const char* what) {
    EXPECT_TRUE(seen.insert(config.Fingerprint()).second)
        << "fingerprint collision after changing " << what;
  };

  ScenarioConfig c = base;
  c.seed = 43;
  expect_fresh(c, "seed");
  c = base;
  c.days = 30;
  expect_fresh(c, "days");
  c = base;
  c.scale = 0.999;
  expect_fresh(c, "scale");
  c = base;
  c.record_requests = false;
  expect_fresh(c, "record_requests");
  c = base;
  // trace_mode entered the fingerprint in v4: checkpoints carry the sink's
  // partial state, so a streaming checkpoint must never resume a full run.
  c.trace_mode = core::TraceMode::kStreaming;
  expect_fresh(c, "trace_mode");
  c = base;
  c.default_keep_alive = 2 * kMinute;
  expect_fresh(c, "default_keep_alive");
  c = base;
  // cells_per_region entered the fingerprint in v5: a cells > 1 run decomposes
  // per-region pools, so it is a different scenario and must never share cache
  // entries or checkpoints with the cells = 1 run.
  c.cells_per_region = 4;
  expect_fresh(c, "cells_per_region");
  c = base;
  c.profiles.pop_back();
  expect_fresh(c, "profile count");

  // Per-profile fields, including every architecture coefficient class the old
  // fingerprint ignored.
  c = base;
  c.profiles[0].num_functions += 1;
  expect_fresh(c, "num_functions");
  c = base;
  c.profiles[1].popularity_alpha += 1e-9;
  expect_fresh(c, "popularity_alpha (sub-1e-6 change)");
  c = base;
  c.profiles[2].obs_hot_fraction += 0.01;
  expect_fresh(c, "obs_hot_fraction");
  c = base;
  c.profiles[0].exec_median_s *= 1.01;
  expect_fresh(c, "exec_median_s");
  c = base;
  c.profiles[3].diurnal.weekend_factor += 0.01;
  expect_fresh(c, "diurnal.weekend_factor");
  c = base;
  c.profiles[0].runtime_weights[0] += 0.01;
  expect_fresh(c, "runtime_weights");
  c = base;
  c.profiles[0].config_weights[1] += 0.01;
  expect_fresh(c, "config_weights");
  c = base;
  ASSERT_FALSE(c.profiles[0].timer_period_weights.empty());
  c.profiles[0].timer_period_weights[0].second += 0.01;
  expect_fresh(c, "timer_period_weights");
  c = base;
  c.profiles[0].pool_base_size[0] += 1;
  expect_fresh(c, "pool_base_size");
  c = base;
  c.profiles[0].pool_refill_per_min += 0.5;
  expect_fresh(c, "pool_refill_per_min");
  c = base;
  c.profiles[4].inter_region_rtt_ms += 1.0;
  expect_fresh(c, "inter_region_rtt_ms");
  c = base;
  c.profiles[0].single_cluster_fraction += 0.01;
  expect_fresh(c, "single_cluster_fraction");

  c = base;
  c.profiles[0].arch.alloc_sigma += 0.01;
  expect_fresh(c, "arch.alloc_sigma");
  c = base;
  c.profiles[0].arch.alloc_scratch_median_s += 0.1;
  expect_fresh(c, "arch.alloc_scratch_median_s");
  c = base;
  c.profiles[0].arch.custom_scratch_median_s += 0.1;
  expect_fresh(c, "arch.custom_scratch_median_s");
  c = base;
  c.profiles[0].arch.code_bandwidth_kb_per_s += 1.0;
  expect_fresh(c, "arch.code_bandwidth_kb_per_s");
  c = base;
  c.profiles[0].arch.dep_congestion_coeff += 0.01;
  expect_fresh(c, "arch.dep_congestion_coeff");
  c = base;
  c.profiles[0].arch.sched_queue_coeff_s += 0.001;
  expect_fresh(c, "arch.sched_queue_coeff_s");
  c = base;
  c.profiles[0].arch.sched_rate_coeff += 0.001;
  expect_fresh(c, "arch.sched_rate_coeff");
  c = base;
  c.profiles[0].arch.rate_saturation += 1.0;
  expect_fresh(c, "arch.rate_saturation");
  c = base;
  c.profiles[0].arch.post_holiday_dep_penalty += 0.01;
  expect_fresh(c, "arch.post_holiday_dep_penalty");
}

TEST(ScenarioFingerprintTest, WorkloadSourceVariantIsCovered) {
  // An explicit SyntheticSource is the same workload as the null default — the
  // cache may share entries. Replay sources hash differently (replay_test pins
  // the full replay-vs-synthetic separation; here we pin the null/explicit
  // equivalence that keeps existing cache entries valid).
  const ScenarioConfig base;
  ScenarioConfig explicit_synth = base;
  explicit_synth.workload = std::make_shared<workload::SyntheticSource>();
  EXPECT_EQ(explicit_synth.Fingerprint(), base.Fingerprint());
  EXPECT_STREQ(base.workload_source().name(), "synthetic");
}

TEST(ScenarioFingerprintTest, StableAcrossCalls) {
  const ScenarioConfig config = core::SmallScenario();
  EXPECT_EQ(config.Fingerprint(), config.Fingerprint());
}

// --- ParallelSweep semantics. ---

TEST(ParallelSweepTest, RunsEveryJobExactlyOnce) {
  std::vector<int> hits(100, 0);
  core::ParallelSweep sweep(4);
  for (size_t i = 0; i < hits.size(); ++i) {
    sweep.Add([&hits, i] { hits[i] += 1; });
  }
  sweep.Run();
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ParallelSweepTest, RethrowsJobException) {
  core::ParallelSweep sweep(2);
  sweep.Add([] { throw std::runtime_error("boom"); });
  sweep.Add([] {});
  EXPECT_THROW(sweep.Run(), std::runtime_error);
}

TEST(ParallelSweepTest, FailsFastAfterFirstError) {
  // The regression this pins: a throwing job used to leave the queue draining —
  // a 100-scenario sweep whose first job failed still ran the other 99 before
  // reporting. With one worker the order is deterministic: job 0 throws, so
  // jobs 1..N-1 must never start.
  std::vector<int> hits(8, 0);
  core::ParallelSweep sweep(1);
  sweep.Add([] { throw std::runtime_error("boom"); });
  for (size_t i = 1; i < hits.size(); ++i) {
    sweep.Add([&hits, i] { hits[i] += 1; });
  }
  EXPECT_THROW(sweep.Run(), std::runtime_error);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 0) << "job " << i << " ran after the sweep failed";
  }
  // The sweep object stays reusable after a failed run.
  bool ran = false;
  sweep.Add([&ran] { ran = true; });
  sweep.Run();
  EXPECT_TRUE(ran);
}

TEST(ParallelSweepTest, DefaultThreadsRespectsEnvOverride) {
  ASSERT_EQ(setenv("COLDSTART_THREADS", "3", 1), 0);
  EXPECT_EQ(core::ParallelSweep::DefaultThreads(), 3);
  ASSERT_EQ(unsetenv("COLDSTART_THREADS"), 0);
  EXPECT_GE(core::ParallelSweep::DefaultThreads(), 1);
}

}  // namespace
}  // namespace coldstart
