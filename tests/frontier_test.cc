// Frontier-driver tests: the Pareto geometry (dominated points excluded,
// strict monotonicity, deterministic tie-breaks), RunFrontier's determinism
// across thread counts, and the point cache's freshness contract — a
// fingerprint change (scenario or policy config) must invalidate cached
// evaluations, and a corrupt entry must be rejected and re-evaluated.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/pareto.h"
#include "core/coldstart_lab.h"
#include "core/frontier.h"
#include "policy/forecast.h"
#include "temp_dir.h"

namespace coldstart {
namespace {

namespace fs = std::filesystem;

using analysis::Dominates;
using analysis::ParetoFrontier;
using analysis::ParetoPoint;
using core::FrontierCandidate;
using core::FrontierPoint;
using core::FrontierResult;
using core::ScenarioConfig;

// --- Pareto geometry. --------------------------------------------------------

TEST(ParetoTest, DominatesRequiresOneStrictImprovement) {
  EXPECT_TRUE(Dominates({1, 5}, {2, 6}));   // Better on both.
  EXPECT_TRUE(Dominates({1, 5}, {1, 6}));   // Equal cost, better latency.
  EXPECT_TRUE(Dominates({1, 5}, {2, 5}));   // Better cost, equal latency.
  EXPECT_FALSE(Dominates({1, 5}, {1, 5}));  // Identical: neither dominates.
  EXPECT_FALSE(Dominates({1, 6}, {2, 5}));  // Trade-off: incomparable.
  EXPECT_FALSE(Dominates({2, 6}, {1, 5}));
}

TEST(ParetoTest, DominatedPointsExcluded) {
  const std::vector<ParetoPoint> points = {
      {10, 1.0},  // 0: expensive, fast — frontier.
      {1, 10.0},  // 1: cheap, slow — frontier.
      {5, 5.0},   // 2: middle — frontier.
      {6, 6.0},   // 3: dominated by 2.
      {10, 2.0},  // 4: dominated by 0.
      {2, 10.0},  // 5: dominated by 1.
  };
  const std::vector<size_t> frontier = ParetoFrontier(points);
  EXPECT_EQ(frontier, (std::vector<size_t>{1, 2, 0}));
  // Cross-check against the Dominates predicate: every excluded point is
  // dominated by some frontier point.
  for (const size_t i : {size_t{3}, size_t{4}, size_t{5}}) {
    bool dominated = false;
    for (const size_t f : frontier) {
      dominated = dominated || Dominates(points[f], points[i]);
    }
    EXPECT_TRUE(dominated) << "point " << i;
  }
}

TEST(ParetoTest, FrontierIsStrictlyMonotone) {
  // A scrambled mix of frontier and interior points.
  const std::vector<ParetoPoint> points = {
      {7, 3.0}, {2, 9.0}, {9, 1.0}, {4, 6.0}, {5, 6.5},
      {3, 8.0}, {8, 2.0}, {6, 5.0}, {2, 8.5}, {9, 1.5},
  };
  const std::vector<size_t> frontier = ParetoFrontier(points);
  ASSERT_GE(frontier.size(), 2u);
  for (size_t i = 1; i < frontier.size(); ++i) {
    // Cost strictly increases and latency strictly decreases along the
    // frontier — no flat segments, no duplicates.
    EXPECT_LT(points[frontier[i - 1]].cost, points[frontier[i]].cost);
    EXPECT_GT(points[frontier[i - 1]].latency, points[frontier[i]].latency);
  }
}

TEST(ParetoTest, DuplicatePointsKeepLowestIndex) {
  const std::vector<ParetoPoint> points = {{5, 5.0}, {1, 9.0}, {5, 5.0},
                                           {1, 9.0}, {5, 5.0}};
  // Of each duplicate group only the lowest input index survives, making
  // ties deterministic regardless of sort implementation.
  EXPECT_EQ(ParetoFrontier(points), (std::vector<size_t>{1, 0}));
}

TEST(ParetoTest, EqualCostKeepsOnlyLowestLatency) {
  const std::vector<ParetoPoint> points = {{3, 7.0}, {3, 4.0}, {3, 9.0},
                                           {1, 8.0}};
  EXPECT_EQ(ParetoFrontier(points), (std::vector<size_t>{3, 1}));
}

TEST(ParetoTest, EmptyAndSingleton) {
  EXPECT_TRUE(ParetoFrontier({}).empty());
  EXPECT_EQ(ParetoFrontier({{42, 7.0}}), (std::vector<size_t>{0}));
}

// --- RunFrontier: structure and determinism. ---------------------------------

ScenarioConfig TinyFrontierScenario() {
  ScenarioConfig config;
  config.days = 1;
  config.scale = 0.05;
  return config;
}

std::vector<FrontierCandidate> TinyCandidates(double min_confidence = 0.7) {
  policy::ForecastPrewarmPolicy::Options options;
  options.forecaster.min_confidence = min_confidence;
  std::vector<FrontierCandidate> candidates;
  candidates.push_back({"baseline", nullptr, 0});
  candidates.push_back(
      {"keepalive-dynamic",
       [] { return std::make_unique<policy::DynamicKeepAlivePolicy>(); },
       HashString("keepalive-dynamic")});
  candidates.push_back(
      {"forecast",
       [options] {
         return std::make_unique<policy::ForecastPrewarmPolicy>(options);
       },
       options.Fingerprint()});
  return candidates;
}

void ExpectSameMetrics(const FrontierResult& a, const FrontierResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    const FrontierPoint& pa = a.points[i];
    const FrontierPoint& pb = b.points[i];
    EXPECT_EQ(pa.name, pb.name);
    EXPECT_EQ(pa.cold_starts, pb.cold_starts) << pa.name;
    EXPECT_EQ(pa.requests, pb.requests) << pa.name;
    // Exact, not approximate: the runs are bit-identical by contract.
    EXPECT_EQ(pa.p50_cold_start_s, pb.p50_cold_start_s) << pa.name;
    EXPECT_EQ(pa.p99_cold_start_s, pb.p99_cold_start_s) << pa.name;
    EXPECT_EQ(pa.pod_seconds, pb.pod_seconds) << pa.name;
    EXPECT_EQ(pa.warm_idle_seconds, pb.warm_idle_seconds) << pa.name;
    EXPECT_EQ(pa.on_frontier, pb.on_frontier) << pa.name;
  }
  EXPECT_EQ(a.frontier, b.frontier);
}

TEST(FrontierTest, StructureAndThreadCountDeterminism) {
  const ScenarioConfig config = TinyFrontierScenario();
  const std::vector<FrontierCandidate> candidates = TinyCandidates();

  const FrontierResult serial = core::RunFrontier(config, candidates, 1);
  ASSERT_EQ(serial.points.size(), candidates.size());
  ASSERT_FALSE(serial.frontier.empty());
  for (const FrontierPoint& p : serial.points) {
    EXPECT_GT(p.requests, 0u) << p.name;
    EXPECT_GT(p.cost(), 0.0) << p.name;
    EXPECT_FALSE(p.from_cache) << p.name;
  }
  // The on_frontier flags are exactly the frontier index set.
  size_t flagged = 0;
  for (const FrontierPoint& p : serial.points) {
    flagged += p.on_frontier ? 1 : 0;
  }
  EXPECT_EQ(flagged, serial.frontier.size());
  // No frontier point is dominated by any point in the set.
  for (const size_t f : serial.frontier) {
    for (const FrontierPoint& p : serial.points) {
      EXPECT_FALSE(Dominates({p.cost(), p.p99_cold_start_s},
                             {serial.points[f].cost(),
                              serial.points[f].p99_cold_start_s}))
          << p.name << " dominates frontier point " << serial.points[f].name;
    }
  }

  // Same study on a thread pool: every metric and the frontier agree exactly.
  const FrontierResult pooled = core::RunFrontier(config, candidates, 8);
  ExpectSameMetrics(serial, pooled);
}

TEST(FrontierTest, PointKeySensitivity) {
  const ScenarioConfig config = TinyFrontierScenario();
  const FrontierCandidate candidate = TinyCandidates()[2];
  const uint64_t base = core::FrontierPointKey(config, candidate);

  ScenarioConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  EXPECT_NE(core::FrontierPointKey(reseeded, candidate), base);

  FrontierCandidate renamed = candidate;
  renamed.name = "forecast-v2";
  EXPECT_NE(core::FrontierPointKey(config, renamed), base);

  // A policy-config change reaches the key through Options::Fingerprint().
  const FrontierCandidate reconfigured = TinyCandidates(0.9)[2];
  ASSERT_NE(reconfigured.policy_fingerprint, candidate.policy_fingerprint);
  EXPECT_NE(core::FrontierPointKey(config, reconfigured), base);
}

class FrontierCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_support::TempPath("coldstart_frontier_cache_test").string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(FrontierCacheTest, CacheRoundTripAndConfigInvalidation) {
  const ScenarioConfig config = TinyFrontierScenario();
  const std::vector<FrontierCandidate> candidates = TinyCandidates();

  const FrontierResult fresh = core::RunFrontier(config, candidates, 1, dir_);
  for (const FrontierPoint& p : fresh.points) {
    EXPECT_FALSE(p.from_cache) << p.name;
  }

  // Second run: every point served from cache, metrics identical.
  const FrontierResult cached = core::RunFrontier(config, candidates, 1, dir_);
  for (const FrontierPoint& p : cached.points) {
    EXPECT_TRUE(p.from_cache) << p.name;
  }
  ExpectSameMetrics(fresh, cached);

  // Tighten the forecaster's confidence gate: its fingerprint changes, so its
  // point — and only its point — must be re-evaluated. A stale cached
  // evaluation of the old configuration can never be served.
  const std::vector<FrontierCandidate> reconfigured = TinyCandidates(0.95);
  const FrontierResult invalidated =
      core::RunFrontier(config, reconfigured, 1, dir_);
  EXPECT_TRUE(invalidated.points[0].from_cache);   // baseline: unchanged.
  EXPECT_TRUE(invalidated.points[1].from_cache);   // keepalive: unchanged.
  EXPECT_FALSE(invalidated.points[2].from_cache);  // forecast: new config.
}

TEST_F(FrontierCacheTest, CorruptCacheEntryRejectedAndReevaluated) {
  const ScenarioConfig config = TinyFrontierScenario();
  const std::vector<FrontierCandidate> candidates = TinyCandidates();
  const FrontierResult fresh = core::RunFrontier(config, candidates, 1, dir_);

  // Flip one payload bit in every cache file (byte 10 of the payload, past the
  // 20-byte frame header): the CRC must reject each entry and RunFrontier
  // must fall back to fresh (identical) evaluations.
  constexpr std::streamoff kPayloadByte = 20 + 10;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    char byte = 0;
    f.seekg(kPayloadByte);
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(kPayloadByte);
    f.write(&byte, 1);
  }
  testing::internal::CaptureStderr();
  const FrontierResult recovered = core::RunFrontier(config, candidates, 1, dir_);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("CRC mismatch"), std::string::npos) << log;
  for (const FrontierPoint& p : recovered.points) {
    EXPECT_FALSE(p.from_cache) << p.name;
  }
  ExpectSameMetrics(fresh, recovered);

  // The fallback rewrote valid entries.
  const FrontierResult rehit = core::RunFrontier(config, candidates, 1, dir_);
  for (const FrontierPoint& p : rehit.points) {
    EXPECT_TRUE(p.from_cache) << p.name;
  }
}

}  // namespace
}  // namespace coldstart
