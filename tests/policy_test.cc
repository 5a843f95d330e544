// Tests for predictors and mitigation policies.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/byte_serde.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "policy/composite.h"
#include "policy/cross_region.h"
#include "policy/keepalive.h"
#include "policy/peak_shaving.h"
#include "policy/pool_prediction.h"
#include "policy/predictors.h"
#include "policy/prewarm.h"
#include "policy/provisioned.h"
#include "policy/workflow_prewarm.h"
#include "trace/trace_store.h"
#include "whole_run_plan.h"

namespace coldstart::policy {
namespace {

using workload::FunctionSpec;

TEST(MovingAveragePredictorTest, ConvergesToMean) {
  SeriesPredictor p = SeriesPredictor::MovingAverage(4);
  for (const double v : {2.0, 4.0, 6.0, 8.0}) {
    p.Observe(v);
  }
  EXPECT_DOUBLE_EQ(p.Predict(), 5.0);
  p.Observe(10.0);  // Evicts the 2.
  EXPECT_DOUBLE_EQ(p.Predict(), 7.0);
}

TEST(MovingAveragePredictorTest, PartialWindow) {
  SeriesPredictor p = SeriesPredictor::MovingAverage(10);
  EXPECT_DOUBLE_EQ(p.Predict(), 0.0);
  p.Observe(6.0);
  EXPECT_DOUBLE_EQ(p.Predict(), 6.0);
}

TEST(SeasonalNaivePredictorTest, RepeatsLastSeason) {
  SeriesPredictor p = SeriesPredictor::SeasonalNaive(3);
  for (const double v : {1.0, 2.0, 3.0}) {
    p.Observe(v);
  }
  // Next bucket is the same phase as the first observation.
  EXPECT_DOUBLE_EQ(p.Predict(), 1.0);
  p.Observe(10.0);
  EXPECT_DOUBLE_EQ(p.Predict(), 2.0);
}

TEST(SeasonalNaivePredictorTest, FallsBackToLastBeforeFullSeason) {
  SeriesPredictor p = SeriesPredictor::SeasonalNaive(5);
  p.Observe(7.0);
  EXPECT_DOUBLE_EQ(p.Predict(), 7.0);
}

TEST(HoltWintersPredictorTest, TracksLinearTrend) {
  SeriesPredictor p = SeriesPredictor::HoltWinters(4, 0.5, 0.3, 0.1);
  for (int i = 0; i < 200; ++i) {
    p.Observe(static_cast<double>(i));
  }
  EXPECT_NEAR(p.Predict(), 200.0, 8.0);
}

TEST(HoltWintersPredictorTest, LearnsSeasonality) {
  SeriesPredictor p = SeriesPredictor::HoltWinters(2, 0.2, 0.01, 0.4);
  for (int i = 0; i < 400; ++i) {
    p.Observe(i % 2 == 0 ? 10.0 : 2.0);  // Alternating season.
  }
  const double even = p.Predict();  // Next is an even-phase bucket.
  p.Observe(10.0);
  const double odd = p.Predict();
  EXPECT_GT(even, odd);
}

FunctionSpec TimerSpec(SimDuration period) {
  FunctionSpec f;
  f.id = 1;
  f.region = 0;
  f.primary_trigger = trace::Trigger::kTimer;
  f.kind = workload::ArrivalKind::kTimer;
  f.timer_period = period;
  return f;
}

TEST(DynamicKeepAliveTest, LearnsInterArrivalTime) {
  DynamicKeepAlivePolicy policy;
  const FunctionSpec spec = TimerSpec(5 * kMinute);
  SimTime t = 0;
  for (int i = 0; i < 10; ++i) {
    policy.OnArrival(spec, t);
    t += 5 * kMinute;
  }
  const SimDuration ka = policy.KeepAliveFor(spec, t);
  // Headroom 1.25 x 5min = 6.25min.
  EXPECT_NEAR(ToSeconds(ka), 375.0, 5.0);
}

TEST(DynamicKeepAliveTest, DefaultBeforeEnoughObservations) {
  DynamicKeepAlivePolicy policy;
  const FunctionSpec spec = TimerSpec(kMinute);
  EXPECT_EQ(policy.KeepAliveFor(spec, 0), kMinute);
  policy.OnArrival(spec, 0);
  policy.OnArrival(spec, kMinute);
  EXPECT_EQ(policy.KeepAliveFor(spec, kMinute), kMinute);
}

TEST(DynamicKeepAliveTest, ClampsToBounds) {
  DynamicKeepAlivePolicy policy;
  const FunctionSpec spec = TimerSpec(kDay);
  SimTime t = 0;
  for (int i = 0; i < 6; ++i) {
    policy.OnArrival(spec, t);
    t += kDay;
  }
  EXPECT_EQ(policy.KeepAliveFor(spec, t), 10 * kMinute);  // max_keep_alive.
}

TEST(PeakShavingTest, DelaysOnlyUnderPressure) {
  PeakShavingPolicy policy;
  FunctionSpec obs;
  obs.primary_trigger = trace::Trigger::kObs;
  platform::RegionLoadState calm, pressured;
  pressured.cold_start_window = 80;  // Well above the recent-window threshold.
  EXPECT_EQ(policy.AdmissionDelay(obs, 0, calm), 0);
  EXPECT_GT(policy.AdmissionDelay(obs, 0, pressured), 0);
  EXPECT_LE(policy.AdmissionDelay(obs, 0, pressured), kMinute);
}

TEST(PeakShavingTest, RespectsTriggerSensitivity) {
  PeakShavingPolicy policy;
  platform::RegionLoadState pressured;
  pressured.cold_start_window = 80;
  FunctionSpec timer;
  timer.primary_trigger = trace::Trigger::kTimer;  // Not delayable by default.
  EXPECT_EQ(policy.AdmissionDelay(timer, 0, pressured), 0);
  FunctionSpec dis;
  dis.primary_trigger = trace::Trigger::kDis;
  EXPECT_GT(policy.AdmissionDelay(dis, 0, pressured), 0);
}

TEST(CompositePolicyTest, FansOutAndCombines) {
  struct CountingPolicy : platform::PlatformPolicy {
    void OnArrival(const FunctionSpec&, SimTime) override { ++arrivals; }
    SimDuration AdmissionDelay(const FunctionSpec&, SimTime,
                               const platform::RegionLoadState&) override {
      return delay;
    }
    int arrivals = 0;
    SimDuration delay = 0;
  };
  auto a = std::make_unique<CountingPolicy>();
  auto b = std::make_unique<CountingPolicy>();
  a->delay = 10;
  b->delay = 30;
  CountingPolicy* ra = a.get();
  CountingPolicy* rb = b.get();
  CompositePolicy combo;
  combo.Add(std::move(a)).Add(std::move(b));

  FunctionSpec spec;
  combo.OnArrival(spec, 0);
  EXPECT_EQ(ra->arrivals, 1);
  EXPECT_EQ(rb->arrivals, 1);
  platform::RegionLoadState load;
  EXPECT_EQ(combo.AdmissionDelay(spec, 0, load), 30);  // Max of sub-delays.
}

TEST(CompositePolicyTest, KeepAliveFirstDeviationWins) {
  struct FixedKa : platform::PlatformPolicy {
    explicit FixedKa(SimDuration v) : ka(v) {}
    SimDuration KeepAliveFor(const FunctionSpec&, SimTime) override { return ka; }
    SimDuration ka;
  };
  CompositePolicy combo;
  combo.Add(std::make_unique<FixedKa>(kMinute));      // Default: skipped.
  combo.Add(std::make_unique<FixedKa>(5 * kSecond));  // First deviation.
  combo.Add(std::make_unique<FixedKa>(9 * kMinute));
  FunctionSpec spec;
  EXPECT_EQ(combo.KeepAliveFor(spec, 0), 5 * kSecond);
}

// End-to-end policy effect checks on a small simulated scenario.
struct TimerScenarioResult {
  int64_t cold_starts;
  int64_t prewarms;
};

TimerScenarioResult RunTimerScenario(platform::PlatformPolicy* policy) {
  workload::Calendar::Options copts;
  copts.trace_days = 1;
  const workload::Calendar cal(copts);
  auto profiles = std::vector<workload::RegionProfile>{
      workload::DefaultRegionProfiles()[0]};

  // 20 timer functions with a 5-minute period: 288 cold starts each at baseline.
  workload::Population pop;
  std::vector<workload::ArrivalEvent> arrivals;
  for (int i = 0; i < 20; ++i) {
    FunctionSpec f;
    f.id = static_cast<trace::FunctionId>(i);
    f.region = 0;
    f.primary_trigger = trace::Trigger::kTimer;
    f.kind = workload::ArrivalKind::kTimer;
    f.timer_period = 5 * kMinute;
    f.exec_median_us = 5e3;
    f.exec_sigma = 0.1;
    f.pod_concurrency = 1;
    pop.functions.push_back(f);
    for (SimTime t = static_cast<SimTime>(i) * kSecond; t < cal.horizon();
         t += 5 * kMinute) {
      arrivals.push_back({t, static_cast<trace::FunctionId>(i)});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  pop.num_users = 1;
  pop.region_begin = {0, static_cast<uint32_t>(pop.functions.size())};

  sim::Simulator sim;
  trace::TraceStore store;
  platform::Platform::Options opts;
  opts.seed = 33;
  opts.record_requests = false;
  platform::Platform platform(pop, profiles, cal, sim, store, opts, policy);
  platform.AttachArrivalStream(
      std::make_unique<workload::MaterializedArrivalStream>(arrivals, workload::NumDayChunks(cal)));
  sim.RunUntil(cal.horizon());
  platform.Finalize();
  return {platform.cold_starts(0), platform.prewarm_spawns(0)};
}

TEST(PolicyScenarioTest, TimerPrewarmEliminatesMostColdStarts) {
  const auto baseline = RunTimerScenario(nullptr);
  TimerAwarePrewarmPolicy prewarm;
  const auto with_policy = RunTimerScenario(&prewarm);
  EXPECT_GT(baseline.cold_starts, 5000);
  // Prewarming converts user-visible cold starts into background spawns.
  EXPECT_LT(with_policy.cold_starts, baseline.cold_starts / 3);
  EXPECT_GT(with_policy.prewarms, 1000);
}

TEST(PolicyScenarioTest, DynamicKeepAliveCoversTimerPeriods) {
  const auto baseline = RunTimerScenario(nullptr);
  DynamicKeepAlivePolicy dynamic;
  const auto with_policy = RunTimerScenario(&dynamic);
  // Keep-alive stretches to ~6.25 min > 5 min period: pods stay warm.
  EXPECT_LT(with_policy.cold_starts, baseline.cold_starts / 10);
}

TEST(WorkflowPrewarmTest, PrewarmsChildrenOnParentStart) {
  // Minimal platform: parent with one child edge.
  workload::Calendar::Options copts;
  copts.trace_days = 1;
  const workload::Calendar cal(copts);
  auto profiles = std::vector<workload::RegionProfile>{
      workload::DefaultRegionProfiles()[0]};
  workload::Population pop;
  FunctionSpec parent;
  parent.id = 0;
  parent.region = 0;
  parent.exec_median_us = 5e6;  // 5s: long enough to hide the child's warm-up.
  parent.exec_sigma = 0.05;
  parent.children.push_back({1, 0.9});
  FunctionSpec child;
  child.id = 1;
  child.region = 0;
  child.kind = workload::ArrivalKind::kWorkflowChild;
  child.primary_trigger = trace::Trigger::kWorkflowSync;
  child.exec_median_us = 5e3;
  pop.functions = {parent, child};
  pop.num_users = 1;
  pop.region_begin = {0, 2};

  WorkflowPrewarmPolicy policy;
  sim::Simulator sim;
  trace::TraceStore store;
  platform::Platform::Options opts;
  opts.seed = 3;
  platform::Platform platform(pop, profiles, cal, sim, store, opts, &policy);
  platform.AttachArrivalStream(std::make_unique<workload::MaterializedArrivalStream>(
      std::vector<workload::ArrivalEvent>{{kHour, 0}}, workload::NumDayChunks(cal)));
  sim.RunUntil(cal.horizon());
  platform.Finalize();
  store.Seal();

  EXPECT_EQ(policy.prewarms_issued(), 1);
  // The child's request lands on the prewarmed pod: only the parent cold-starts
  // user-visibly.
  EXPECT_EQ(platform.cold_starts(0), 1);
}

// --- Per-function policy state serde. --------------------------------------

// A one-region platform over functions 0..19 in which function 0 calls 9, 2
// and 5, in that order. Nothing is simulated: tests drive the policy hooks by
// hand.
struct HandDrivenPlatform {
  static workload::Calendar::Options OneDay() {
    workload::Calendar::Options copts;
    copts.trace_days = 1;
    return copts;
  }
  static workload::Population FanOut() {
    workload::Population pop;
    for (trace::FunctionId fid = 0; fid < 20; ++fid) {
      FunctionSpec f;
      f.id = fid;
      f.region = 0;
      f.exec_median_us = 5e3;
      pop.functions.push_back(f);
    }
    pop.functions[0].children = {{9, 0.9}, {2, 0.9}, {5, 0.9}};
    pop.num_users = 1;
    pop.region_begin = {0, 20};
    return pop;
  }

  explicit HandDrivenPlatform(platform::PlatformPolicy* policy)
      : platform(pop, profiles, cal, sim, store, platform::Platform::Options{},
                 policy) {}

  workload::Calendar cal{OneDay()};
  std::vector<workload::RegionProfile> profiles{
      workload::DefaultRegionProfiles()[0]};
  workload::Population pop = FanOut();
  sim::Simulator sim;
  trace::TraceStore store;
  platform::Platform platform;
};

// Per-function state touched out of fid order must serialize as `count, (fid,
// entry)...` in ascending fid order, and save -> restore -> save must
// reproduce the blob byte for byte.
TEST(PolicyStateSerdeTest, FidOrderedLayoutAndByteStableRoundTrip) {
  constexpr trace::FunctionId kTouchOrder[] = {9, 2, 5};
  constexpr trace::FunctionId kFidOrder[] = {2, 5, 9};
  struct Case {
    const char* name;
    std::function<std::unique_ptr<platform::PlatformPolicy>()> make;
    std::function<void(platform::PlatformPolicy&, const workload::Population&)> drive;
    std::function<std::string()> expected;
  };
  const Case cases[] = {
      {"DynamicKeepAlive",
       [] { return std::make_unique<DynamicKeepAlivePolicy>(); },
       [&](platform::PlatformPolicy& p, const workload::Population& pop) {
         for (const auto fid : kTouchOrder) {
           p.OnArrival(pop.functions[fid], 0);
         }
         for (const auto fid : kTouchOrder) {
           p.OnArrival(pop.functions[fid], fid * kMinute);
         }
       },
       [&] {
         ByteWriter w;
         w.U64(3);
         for (const auto fid : kFidOrder) {
           w.U64(fid);
           w.I64(fid * kMinute);                         // last_arrival
           w.F64(static_cast<double>(fid * kMinute));  // iat_ewma
           w.I64(1);                                     // observations
         }
         return w.Take();
       }},
      {"TimerAwarePrewarm",
       [] { return std::make_unique<TimerAwarePrewarmPolicy>(); },
       [&](platform::PlatformPolicy& p, const workload::Population& pop) {
         for (const auto fid : kTouchOrder) {
           p.OnArrival(pop.functions[fid], 0);
         }
         for (const auto fid : kTouchOrder) {
           p.OnArrival(pop.functions[fid], fid * kMinute);
         }
       },
       [&] {
         ByteWriter w;
         w.I64(0);  // Prewarm counter.
         w.U64(3);
         for (const auto fid : kFidOrder) {
           w.U64(fid);
           w.I64(fid * kMinute);                         // last_arrival
           w.F64(static_cast<double>(fid * kMinute));  // period_estimate
           w.I64(1);                                     // stable_count
         }
         return w.Take();
       }},
      {"WorkflowPrewarm",
       [] { return std::make_unique<WorkflowPrewarmPolicy>(); },
       [](platform::PlatformPolicy& p, const workload::Population& pop) {
         p.OnParentRequestStart(pop.functions[0], 10 * kSecond);
       },
       [&] {
         ByteWriter w;
         w.I64(3);  // Prewarm counter.
         w.U64(3);
         for (const auto fid : kFidOrder) {
           w.U64(fid);
           w.I64(10 * kSecond);  // Last prewarm of this child.
         }
         return w.Take();
       }},
      {"ProfilePrewarm",
       [] { return std::make_unique<ProfilePrewarmPolicy>(); },
       [&](platform::PlatformPolicy& p, const workload::Population& pop) {
         for (const auto fid : kTouchOrder) {
           p.OnArrival(pop.functions[fid], fid * kMinute);
         }
         p.OnColdStart(pop.functions[9], kHour, kSecond);
         p.OnColdStart(pop.functions[2], kHour, kSecond);
       },
       [&] {
         ByteWriter w;
         w.I64(0);  // Prewarm counter.
         w.U64(2);  // Watch list, ascending.
         w.U64(2);
         w.U64(9);
         w.U64(3);
         for (const auto fid : kFidOrder) {
           std::vector<float> per_minute(1440, 0.f);
           per_minute[fid] = 1.f;
           w.U64(fid);
           w.Raw(per_minute.data(), per_minute.size() * sizeof(float));
         }
         return w.Take();
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto policy = c.make();
    HandDrivenPlatform h(policy.get());
    c.drive(*policy, h.pop);
    std::string blob;
    ASSERT_TRUE(policy->SavePolicyState(&blob));
    EXPECT_EQ(blob, c.expected());

    auto restored = c.make();
    ASSERT_TRUE(restored->RestorePolicyState(blob));
    std::string again;
    ASSERT_TRUE(restored->SavePolicyState(&again));
    EXPECT_EQ(again, blob);
  }
}

// A duplicate or descending fid means the blob was not written by
// SavePolicyState: restore must die rather than silently overwrite an entry.
TEST(PolicyStateSerdeTest, RestoreRejectsUnorderedFids) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto blob_with_fids = [](std::initializer_list<uint64_t> fids) {
    ByteWriter w;
    w.U64(fids.size());
    for (const uint64_t fid : fids) {
      w.U64(fid);
      w.I64(0);
      w.F64(0);
      w.I64(0);
    }
    return w.Take();
  };
  DynamicKeepAlivePolicy ok;
  EXPECT_TRUE(ok.RestorePolicyState(blob_with_fids({2, 5, 9})));
  EXPECT_DEATH(DynamicKeepAlivePolicy().RestorePolicyState(blob_with_fids({2, 2})),
               "CHECK failed");
  EXPECT_DEATH(DynamicKeepAlivePolicy().RestorePolicyState(blob_with_fids({5, 2})),
               "CHECK failed");
}

// --- Provisioned concurrency. ----------------------------------------------

TEST(ProvisionedConcurrencyTest, FloorAbsorbsRepeatColdStarts) {
  const auto baseline = RunTimerScenario(nullptr);
  ProvisionedConcurrencyPolicy policy;
  const auto with_policy = RunTimerScenario(&policy);

  // Every function enrolls on its first cold start; from then on the minute
  // tick keeps a ready pod ahead of the 5-minute timers.
  EXPECT_EQ(policy.enrolled_functions(), 20);
  EXPECT_LT(with_policy.cold_starts, baseline.cold_starts / 3);
  EXPECT_GT(policy.floor_spawns(), 100);
  EXPECT_GT(policy.floor_hits(), 1000);
  // Hits + misses account for every enrolled arrival that the policy observed.
  EXPECT_GT(policy.floor_hits() + policy.floor_misses(), 5000);
}

TEST(ProvisionedConcurrencyTest, EnrollmentBudgetCaps) {
  ProvisionedConcurrencyPolicy::Options options;
  options.max_provisioned_functions = 5;
  ProvisionedConcurrencyPolicy policy(options);
  RunTimerScenario(&policy);
  EXPECT_EQ(policy.enrolled_functions(), 5);  // 20 candidates, 5 slots.
}

TEST(ProvisionedConcurrencyTest, PolicyStateRoundTrips) {
  ProvisionedConcurrencyPolicy policy;
  RunTimerScenario(&policy);
  std::string blob;
  ASSERT_TRUE(policy.SavePolicyState(&blob));
  EXPECT_FALSE(blob.empty());

  // Restore follows OnAttach (policy_hooks.h): the timer scenario's functions
  // 0..19 all live in region 0, like the hand-driven platform's.
  ProvisionedConcurrencyPolicy restored;
  HandDrivenPlatform h(&restored);
  ASSERT_TRUE(restored.RestorePolicyState(blob));
  EXPECT_EQ(restored.enrolled_functions(), policy.enrolled_functions());
  EXPECT_EQ(restored.floor_spawns(), policy.floor_spawns());
  EXPECT_EQ(restored.floor_hits(), policy.floor_hits());
  EXPECT_EQ(restored.floor_misses(), policy.floor_misses());
  std::string blob2;
  ASSERT_TRUE(restored.SavePolicyState(&blob2));
  EXPECT_EQ(blob, blob2);  // Byte-stable round trip (sorted enrollment set).
}

// The per-region enrolled count is rebuilt from the restored set, so a blob
// that repeats a fid or overfills a region's budget must die rather than leave
// the count above the set it describes.
TEST(ProvisionedConcurrencyTest, RestoreRejectsRepeatedOrOverBudgetFids) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto blob_with_fids = [](std::initializer_list<uint64_t> fids) {
    ByteWriter w;
    for (int counter = 0; counter < 4; ++counter) {
      w.I64(0);
    }
    w.U64(fids.size());
    for (const uint64_t fid : fids) {
      w.U64(fid);
    }
    return w.Take();
  };
  const auto restore = [](int budget, const std::string& blob) {
    ProvisionedConcurrencyPolicy::Options options;
    options.max_provisioned_functions = budget;
    ProvisionedConcurrencyPolicy policy(options);
    HandDrivenPlatform h(&policy);
    return policy.RestorePolicyState(blob);
  };
  EXPECT_TRUE(restore(2, blob_with_fids({2, 5})));
  EXPECT_DEATH(restore(2, blob_with_fids({2, 2})), "CHECK failed");
  EXPECT_DEATH(restore(1, blob_with_fids({2, 5})), "CHECK failed");
}

TEST(ProvisionedConcurrencyTest, SerialAndRegionShardedRunsAgree) {
  // Region-local but not function-local: the enrollment budget pins each region
  // to one capacity cell, and serial vs. one-shard-per-region runs must still
  // be bit-identical — including the absorbed utilization counters.
  core::ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.1;
  config.record_requests = false;
  config.trace_mode = core::TraceMode::kStreaming;
  const core::Experiment experiment(config);

  ProvisionedConcurrencyPolicy serial_policy;
  const core::ExperimentResult serial =
      testing_support::RunWholePlan(experiment, &serial_policy);
  ProvisionedConcurrencyPolicy sharded_policy;
  const core::ExperimentResult sharded = experiment.Run(&sharded_policy, 5);
  ASSERT_GT(sharded.shards, 1u);

  EXPECT_EQ(serial.visible_cold_starts, sharded.visible_cold_starts);
  EXPECT_EQ(serial.prewarm_spawns, sharded.prewarm_spawns);
  ByteWriter a, b;
  serial.streaming.SaveState(a);
  sharded.streaming.SaveState(b);
  EXPECT_EQ(a.data(), b.data());
  ByteWriter ca, cb;
  serial.cost_ledger.SaveState(ca);
  sharded.cost_ledger.SaveState(cb);
  EXPECT_EQ(ca.data(), cb.data());

  EXPECT_GT(serial_policy.enrolled_functions(), 0);
  EXPECT_EQ(serial_policy.enrolled_functions(), sharded_policy.enrolled_functions());
  EXPECT_EQ(serial_policy.floor_spawns(), sharded_policy.floor_spawns());
  EXPECT_EQ(serial_policy.floor_hits(), sharded_policy.floor_hits());
  EXPECT_EQ(serial_policy.floor_misses(), sharded_policy.floor_misses());
}

}  // namespace
}  // namespace coldstart::policy
