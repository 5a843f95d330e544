// End-to-end integration tests: full scenarios through the public API, checking
// structural invariants of the emitted traces and the headline paper shapes on a
// reduced scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "core/coldstart_lab.h"

namespace coldstart {
namespace {

// One shared small scenario for the whole suite (runs once, ~1-2s).
const core::ExperimentResult& SharedResult() {
  static const core::ExperimentResult result = [] {
    core::ScenarioConfig config = core::SmallScenario();
    core::Experiment experiment(config);
    return experiment.Run();
  }();
  return result;
}

TEST(IntegrationTest, ProducesAllStreams) {
  const auto& r = SharedResult();
  EXPECT_GT(r.store.requests().size(), 10000u);
  EXPECT_GT(r.store.cold_starts().size(), 1000u);
  EXPECT_GT(r.store.pods().size(), 1000u);
  EXPECT_GT(r.store.functions().size(), 500u);
  EXPECT_EQ(r.store.horizon(), 7 * kDay);
}

TEST(IntegrationTest, BaselinePodsEqualColdStarts) {
  // Without prewarming, every pod is born from a user-visible cold start.
  const auto& r = SharedResult();
  EXPECT_EQ(r.store.pods().size(), r.store.cold_starts().size());
  const int64_t visible = std::accumulate(r.visible_cold_starts.begin(),
                                          r.visible_cold_starts.end(), int64_t{0});
  EXPECT_EQ(static_cast<size_t>(visible), r.store.cold_starts().size());
}

TEST(IntegrationTest, ComponentsAlwaysSumToTotal) {
  for (const auto& c : SharedResult().store.cold_starts()) {
    EXPECT_EQ(c.cold_start_us,
              c.pod_alloc_us + c.deploy_code_us + c.deploy_dep_us + c.scheduling_us);
    EXPECT_GT(c.pod_alloc_us, 0u);
    EXPECT_GT(c.scheduling_us, 0u);
  }
}

TEST(IntegrationTest, TimestampsWithinHorizon) {
  const auto& r = SharedResult();
  for (const auto& req : r.store.requests()) {
    EXPECT_GE(req.timestamp, 0);
    EXPECT_LT(req.timestamp, r.store.horizon() + kHour);  // Tail executions spill a bit.
  }
  for (const auto& p : r.store.pods()) {
    EXPECT_LE(p.cold_start_begin, p.ready_time);
    EXPECT_LE(p.ready_time, p.death_time);
    // Horizon-censored pods may carry an in-flight execution slightly past the end.
    EXPECT_LE(p.death_time, r.store.horizon() + 2 * kHour);
  }
}

TEST(IntegrationTest, PodLifecycleConsistent) {
  for (const auto& p : SharedResult().store.pods()) {
    EXPECT_EQ(p.ready_time - p.cold_start_begin, p.cold_start_us);
    EXPECT_GE(p.last_busy_end, p.ready_time - 1);
    EXPECT_GE(p.death_time, p.last_busy_end);
  }
}

TEST(IntegrationTest, RequestsReferenceKnownFunctionsAndPods) {
  const auto& r = SharedResult();
  const size_t num_functions = r.store.functions().size();
  for (const auto& req : r.store.requests()) {
    EXPECT_LT(req.function_id, num_functions);
    EXPECT_LT(req.cluster, trace::kClustersPerRegion);
    EXPECT_LT(req.region, trace::kNumRegions);
    EXPECT_GT(req.execution_time_us, 0u);
  }
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  core::ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.2;
  core::Experiment experiment(config);
  const auto a = experiment.Run();
  const auto b = experiment.Run();
  EXPECT_EQ(a.store.requests().size(), b.store.requests().size());
  EXPECT_EQ(a.store.cold_starts().size(), b.store.cold_starts().size());
  ASSERT_EQ(a.visible_cold_starts, b.visible_cold_starts);
  // Spot-check record equality.
  for (size_t i = 0; i < std::min<size_t>(100, a.store.cold_starts().size()); ++i) {
    EXPECT_EQ(a.store.cold_starts()[i].cold_start_us,
              b.store.cold_starts()[i].cold_start_us);
  }
}

TEST(IntegrationTest, CacheRoundTripMatchesFreshRun) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "coldstart_cache_test";
  fs::remove_all(dir);
  core::ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.2;
  core::Experiment experiment(config);
  const auto fresh = experiment.RunCached(dir.string());
  EXPECT_FALSE(fresh.from_cache);
  const auto cached = experiment.RunCached(dir.string());
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.store.requests().size(), fresh.store.requests().size());
  EXPECT_EQ(cached.store.cold_starts().size(), fresh.store.cold_starts().size());
  EXPECT_EQ(cached.store.pods().size(), fresh.store.pods().size());
  EXPECT_EQ(cached.store.horizon(), fresh.store.horizon());
  fs::remove_all(dir);
}

// --- Headline paper shapes on the small scenario (loose bands). ---

TEST(PaperShapeTest, RegionOrderings) {
  const auto sizes = analysis::ComputeRegionSizes(SharedResult().store);
  // R1 busiest; R3 smallest by requests.
  for (int r = 1; r < trace::kNumRegions; ++r) {
    EXPECT_GT(sizes[0].requests, sizes[static_cast<size_t>(r)].requests);
  }
  EXPECT_LT(sizes[2].requests, sizes[1].requests);
}

TEST(PaperShapeTest, R3HasFastestColdStarts) {
  const auto cdfs = analysis::ColdStartTimeCdfs(SharedResult().store);
  const double r3 = cdfs[2].Quantile(0.5);
  for (const int r : {0, 1, 3, 4}) {
    EXPECT_LT(r3, cdfs[static_cast<size_t>(r)].Quantile(0.5));
  }
}

TEST(PaperShapeTest, ColdStartTimesHeavyTailed) {
  const auto cdfs = analysis::ColdStartTimeCdfs(SharedResult().store);
  const auto& all = cdfs.back();
  EXPECT_GT(all.Quantile(0.99), 4 * all.Quantile(0.5));
}

TEST(PaperShapeTest, LogNormalFitIsReasonable) {
  const auto fits = analysis::FitColdStartDistributions(SharedResult().store);
  EXPECT_LT(fits.cold_start_quality.ks_distance, 0.15);
  EXPECT_GT(fits.cold_start_mean, 0.5);
  EXPECT_LT(fits.cold_start_mean, 30.0);
  EXPECT_LT(fits.iat_quality.ks_distance, 0.12);
  EXPECT_LT(fits.iat_weibull.shape, 1.0);  // Bursty inter-arrivals (shape < 1).
}

TEST(PaperShapeTest, CustomRuntimeSlowerThanPython) {
  const auto& store = SharedResult().store;
  const auto custom = analysis::ComponentCdfByRuntime(
      store, -1, static_cast<int>(trace::Runtime::kCustom),
      analysis::ColdStartComponent::kTotal);
  const auto py3 = analysis::ComponentCdfByRuntime(
      store, -1, static_cast<int>(trace::Runtime::kPython3),
      analysis::ColdStartComponent::kTotal);
  ASSERT_FALSE(custom.empty());
  ASSERT_FALSE(py3.empty());
  EXPECT_GT(custom.Quantile(0.5), 4 * py3.Quantile(0.5));
}

TEST(PaperShapeTest, TimersDominateDiagonalFunctions) {
  const auto entries = analysis::ComputeRequestsVsColdStarts(SharedResult().store, -1);
  size_t diagonal = 0, diagonal_timers = 0;
  for (const auto& e : entries) {
    if (e.cold_starts >= e.total_requests * 95 / 100 && e.total_requests >= 10) {
      ++diagonal;
      diagonal_timers += e.trigger == trace::TriggerGroup::kTimerA ? 1 : 0;
    }
  }
  ASSERT_GT(diagonal, 10u);
  EXPECT_GT(static_cast<double>(diagonal_timers) / static_cast<double>(diagonal), 0.4);
}

TEST(PaperShapeTest, UtilityRatioOrderings) {
  // At our volume scale most pods serve a single request, which compresses absolute
  // utility ratios (documented in docs/paper-map.md); the paper's *orderings* must hold:
  // timers are the worst trigger group, and a meaningful share of pods sits below 1.
  const auto& store = SharedResult().store;
  const auto all = analysis::UtilityByRuntime(store, -1, -1);
  ASSERT_GT(all.size(), 100u);
  EXPECT_GT(all.CdfAt(1.0), 0.05);
  const auto timers = analysis::UtilityByTrigger(
      store, -1, static_cast<int>(trace::TriggerGroup::kTimerA));
  const auto obs = analysis::UtilityByTrigger(
      store, -1, static_cast<int>(trace::TriggerGroup::kObsA));
  ASSERT_FALSE(timers.empty());
  ASSERT_FALSE(obs.empty());
  // OBS pods run long batch executions, so their useful lifetime dwarfs a timer pod's
  // single short invocation.
  EXPECT_LT(timers.Quantile(0.5), obs.Quantile(0.5));
}

TEST(PaperShapeTest, SmallPodsColdStartFasterInMostRegions) {
  const auto& store = SharedResult().store;
  int regions_with_effect = 0;
  for (int r = 0; r < trace::kNumRegions; ++r) {
    const auto small = analysis::PoolSizeDistribution(
        store, r, trace::PoolSizeClass::kSmall, analysis::ColdStartComponent::kTotal);
    const auto large = analysis::PoolSizeDistribution(
        store, r, trace::PoolSizeClass::kLarge, analysis::ColdStartComponent::kTotal);
    if (small.empty() || large.empty()) {
      continue;
    }
    if (large.Quantile(0.5) > small.Quantile(0.5)) {
      ++regions_with_effect;
    }
  }
  EXPECT_GE(regions_with_effect, 3);
}

TEST(PaperShapeTest, ColdStartCountCorrelatesWithTotalTime) {
  // "Mean cold start time tends to correlate positively with number of cold starts."
  int positive = 0;
  for (int r = 0; r < trace::kNumRegions; ++r) {
    const auto m = analysis::ComponentCorrelationMatrix(SharedResult().store, r);
    if (m[0][5].rho > 0) {
      ++positive;
    }
  }
  EXPECT_GE(positive, 4);
}

}  // namespace
}  // namespace coldstart
