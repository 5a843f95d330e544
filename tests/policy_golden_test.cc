// Policy golden: the FrontierPoint of every shipped mitigation candidate on
// SmallScenario(), pinned against a checked-in file. golden_trace_test pins
// only the unmitigated run; this one covers the policy layer, so a change to
// any policy hook, the forecaster's arithmetic or the ledger's cost axis that
// moves one candidate's point shows up here. Doubles are compared by bit
// pattern, not by tolerance: every evaluation is deterministic.
//
// The candidate set is pareto_frontier's (examples/pareto_frontier.cpp): the
// baseline, every §5 mitigation at its defaults, the classic composite, the
// forecaster at three confidence/horizon settings and forecast+workflow.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/coldstart_lab.h"

namespace coldstart {
namespace {

std::string GoldenPath() {
  return std::string(COLDSTART_GOLDEN_DIR) + "/policy_frontier.golden";
}

template <typename Policy>
core::FrontierCandidate Plain(const std::string& name) {
  return {name, [] { return std::make_unique<Policy>(); }, HashString(name)};
}

core::FrontierCandidate Forecast(const std::string& name, double min_confidence,
                                 SimDuration horizon) {
  policy::ForecastPrewarmPolicy::Options options;
  options.forecaster.min_confidence = min_confidence;
  options.max_horizon = horizon;
  return {name,
          [options] { return std::make_unique<policy::ForecastPrewarmPolicy>(options); },
          options.Fingerprint()};
}

std::vector<core::FrontierCandidate> ShippedCandidates() {
  std::vector<core::FrontierCandidate> c;
  c.push_back({"baseline", nullptr, 0});
  c.push_back(Plain<policy::DynamicKeepAlivePolicy>("keepalive-dynamic"));
  c.push_back(Plain<policy::TimerAwarePrewarmPolicy>("prewarm-timer"));
  c.push_back(Plain<policy::ProfilePrewarmPolicy>("prewarm-profile"));
  c.push_back(Plain<policy::WorkflowPrewarmPolicy>("workflow-prewarm"));
  c.push_back(Plain<policy::ProvisionedConcurrencyPolicy>("provisioned"));
  c.push_back(Plain<policy::PeakShavingPolicy>("peak-shaving"));
  c.push_back(Plain<policy::PoolPredictionPolicy>("pool-prediction"));
  c.push_back({"composite-classic",
               [] {
                 auto combo = std::make_unique<policy::CompositePolicy>();
                 combo->Add(std::make_unique<policy::TimerAwarePrewarmPolicy>())
                     .Add(std::make_unique<policy::DynamicKeepAlivePolicy>())
                     .Add(std::make_unique<policy::WorkflowPrewarmPolicy>())
                     .Add(std::make_unique<policy::PeakShavingPolicy>());
                 return combo;
               },
               HashString("composite-classic")});
  c.push_back(Forecast("forecast-c50-h6h", 0.5, 6 * kHour));
  c.push_back(Forecast("forecast-c70-h12h", 0.7, 12 * kHour));
  c.push_back(Forecast("forecast-c90-h24h", 0.9, 24 * kHour));
  const policy::ForecastPrewarmPolicy::Options options;
  c.push_back({"forecast+workflow",
               [options] {
                 auto combo = std::make_unique<policy::CompositePolicy>();
                 combo->Add(std::make_unique<policy::ForecastPrewarmPolicy>(options))
                     .Add(std::make_unique<policy::WorkflowPrewarmPolicy>());
                 return combo;
               },
               MixHash(options.Fingerprint(), HashString("forecast+workflow"))});
  return c;
}

std::string Bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
  return buf;
}

// One line per point: every FrontierPoint field that an evaluation produces,
// doubles as their IEEE-754 bit patterns.
std::string Render(const core::FrontierResult& result) {
  std::ostringstream out;
  out << "# name cold_starts requests p50_s p99_s pod_s warm_idle_s on_frontier\n";
  for (const core::FrontierPoint& p : result.points) {
    out << p.name << ' ' << p.cold_starts << ' ' << p.requests << ' '
        << Bits(p.p50_cold_start_s) << ' ' << Bits(p.p99_cold_start_s) << ' '
        << Bits(p.pod_seconds) << ' ' << Bits(p.warm_idle_seconds) << ' '
        << (p.on_frontier ? 1 : 0) << '\n';
  }
  return out.str();
}

TEST(PolicyGoldenTest, EveryShippedCandidateMatchesCheckedInPoints) {
  const core::FrontierResult result =
      core::RunFrontier(core::SmallScenario(), ShippedCandidates());
  ASSERT_EQ(result.points.size(), ShippedCandidates().size());
  for (const core::FrontierPoint& p : result.points) {
    ASSERT_FALSE(p.from_cache) << p.name;
  }
  const std::string actual = Render(result);

  if (std::getenv("COLDSTART_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << actual;
    out.close();
    GTEST_SKIP() << "policy golden regenerated: " << GoldenPath()
                 << " — commit the file.";
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good())
      << "missing golden file " << GoldenPath()
      << " — generate it with:\n  COLDSTART_UPDATE_GOLDENS=1 ctest -R policy_golden_test";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "A mitigation candidate's SmallScenario() point drifted from the\n"
      << "checked-in golden. If this behavioral change is INTENDED, regenerate\n"
      << "it with:\n"
      << "  COLDSTART_UPDATE_GOLDENS=1 ctest -R policy_golden_test\n"
      << "and commit tests/golden/policy_frontier.golden. If it is NOT intended,\n"
      << "a change perturbed a policy hook, the forecaster or the cost ledger.";
}

}  // namespace
}  // namespace coldstart
