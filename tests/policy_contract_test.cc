// The policy contract, table-driven over every shipped policy. A run gives the
// same trace, per-region counters and policy counters at any thread count,
// and function-local policies do so at any cell geometry too. A run stopped
// at a checkpoint and resumed on a fresh instance equals a plain run: serial,
// and sharded wherever the policy shards. Budgets are tight so that the
// budgeted policies' budgets bind.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_serde.h"
#include "common/rng.h"
#include "core/coldstart_lab.h"

namespace coldstart {
namespace {

namespace fs = std::filesystem;

using core::CheckpointPolicy;
using core::Experiment;
using core::ExperimentResult;
using core::ScenarioConfig;

// A fresh policy plus a reader of its observable counters, valid after a run.
struct Instance {
  std::unique_ptr<platform::PlatformPolicy> policy;
  std::function<std::vector<int64_t>()> counters;
};

template <typename P>
Instance Counted(std::unique_ptr<P> policy, std::vector<int64_t (P::*)() const> getters) {
  const P* raw = policy.get();
  return {std::move(policy), [raw, getters] {
            std::vector<int64_t> values;
            for (const auto getter : getters) {
              values.push_back((raw->*getter)());
            }
            return values;
          }};
}

struct PolicyCase {
  const char* name;
  std::function<Instance()> make;
};

std::vector<PolicyCase> ShippedPolicies() {
  using namespace policy;
  return {
      {"keepalive-dynamic",
       [] { return Counted(std::make_unique<DynamicKeepAlivePolicy>(), {}); }},
      {"prewarm-timer",
       [] {
         return Counted(std::make_unique<TimerAwarePrewarmPolicy>(),
                        {&TimerAwarePrewarmPolicy::prewarms_issued});
       }},
      {"prewarm-profile",
       [] {
         ProfilePrewarmPolicy::Options options;
         options.max_prewarms_per_tick = 1;
         return Counted(std::make_unique<ProfilePrewarmPolicy>(options),
                        {&ProfilePrewarmPolicy::prewarms_issued});
       }},
      {"workflow-prewarm",
       [] {
         return Counted(std::make_unique<WorkflowPrewarmPolicy>(),
                        {&WorkflowPrewarmPolicy::prewarms_issued});
       }},
      {"provisioned",
       [] {
         ProvisionedConcurrencyPolicy::Options options;
         options.max_provisioned_functions = 5;
         return Counted(std::make_unique<ProvisionedConcurrencyPolicy>(options),
                        {&ProvisionedConcurrencyPolicy::enrolled_functions,
                         &ProvisionedConcurrencyPolicy::floor_spawns,
                         &ProvisionedConcurrencyPolicy::floor_hits,
                         &ProvisionedConcurrencyPolicy::floor_misses});
       }},
      {"peak-shaving",
       [] {
         return Counted(std::make_unique<PeakShavingPolicy>(),
                        {&PeakShavingPolicy::delays_issued});
       }},
      {"pool-prediction",
       [] { return Counted(std::make_unique<PoolPredictionPolicy>(), {}); }},
      // Holt-Winters follows each minute's demand and a large headroom turns
      // that into pool targets, so the demand pending at a checkpoint shows in
      // the trace.
      {"pool-prediction (holt-winters, headroom 20)",
       [] {
         PoolPredictionPolicy::Options options;
         options.predictor = SeriesPredictor::Kind::kHoltWinters;
         options.headroom = 20;
         return Counted(std::make_unique<PoolPredictionPolicy>(options), {});
       }},
      {"cross-region",
       [] { return Counted(std::make_unique<CrossRegionPolicy>(), {}); }},
      {"forecast",
       [] {
         return Counted(std::make_unique<ForecastPrewarmPolicy>(),
                        {&ForecastPrewarmPolicy::prewarms_issued,
                         &ForecastPrewarmPolicy::keepalive_extended,
                         &ForecastPrewarmPolicy::keepalive_curtailed});
       }},
      {"forecast+workflow",
       [] {
         auto forecast = std::make_unique<ForecastPrewarmPolicy>();
         auto workflow = std::make_unique<WorkflowPrewarmPolicy>();
         const ForecastPrewarmPolicy* f = forecast.get();
         const WorkflowPrewarmPolicy* w = workflow.get();
         auto combo = std::make_unique<CompositePolicy>();
         combo->Add(std::move(forecast)).Add(std::move(workflow));
         return Instance{std::move(combo), [f, w] {
                           return std::vector<int64_t>{
                               f->prewarms_issued(), f->keepalive_extended(),
                               f->keepalive_curtailed(), w->prewarms_issued()};
                         }};
       }},
  };
}

ScenarioConfig ContractScenario(uint32_t cells_per_region) {
  ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  config.scale = 0.1;
  config.record_requests = false;
  config.cells_per_region = cells_per_region;
  return config;
}

// Everything a run shows: the trace digest, the per-region platform counters,
// the cost ledger and the policy's own counters.
struct Observed {
  uint64_t digest = 0;
  std::vector<std::vector<int64_t>> region_counters;
  uint64_t ledger = 0;  // Hash of the cost ledger's serialized state.
  std::vector<int64_t> policy_counters;
};

Observed Observe(const ExperimentResult& result, const Instance& instance) {
  ByteWriter ledger;
  result.cost_ledger.SaveState(ledger);
  return {trace::Digest(result.store),
          {result.visible_cold_starts, result.prewarm_spawns, result.delayed_allocations,
           result.scratch_allocations, result.cold_start_latency_sum_us},
          HashString(ledger.data()),
          instance.counters()};
}

void ExpectSameRun(const Observed& want, const Observed& got) {
  EXPECT_EQ(want.digest, got.digest);
  EXPECT_EQ(want.region_counters, got.region_counters);
  EXPECT_EQ(want.ledger, got.ledger);
  EXPECT_EQ(want.policy_counters, got.policy_counters);
}

Observed PlainRun(const Experiment& experiment, const PolicyCase& c, int threads) {
  const Instance instance = c.make();
  const ExperimentResult result = experiment.Run(instance.policy.get(), threads);
  EXPECT_EQ(result.interrupted_at_day, -1);
  return Observe(result, instance);
}

// Stops the run at its first checkpoint after day 1, then resumes it on a
// fresh instance: the restart-after-crash situation.
Observed StoppedAndResumedRun(const Experiment& experiment, const PolicyCase& c,
                              int threads, const std::string& dir) {
  fs::remove_all(dir);
  std::atomic<bool> stop{false};
  CheckpointPolicy ckpt;
  ckpt.dir = dir;
  ckpt.stop = &stop;
  ckpt.on_checkpoint = [&stop](int64_t day, uint32_t) {
    if (day >= 1) {
      stop.store(true);
    }
  };
  const Instance stopped = c.make();
  const ExperimentResult interrupted =
      experiment.Run(stopped.policy.get(), threads, &ckpt);
  EXPECT_GT(interrupted.interrupted_at_day, 0);

  const Instance resumed = c.make();
  const ExperimentResult result =
      experiment.ResumeFrom(dir, resumed.policy.get(), threads);
  EXPECT_EQ(result.interrupted_at_day, -1);
  fs::remove_all(dir);
  return Observe(result, resumed);
}

TEST(PolicyContractTest, EveryShippedPolicyIsThreadInvariantAndResumable) {
  const Experiment experiment(ContractScenario(1));
  const Experiment two_cells(ContractScenario(2));
  const std::string dir =
      (fs::temp_directory_path() / "coldstart_policy_contract_test").string();
  for (const PolicyCase& c : ShippedPolicies()) {
    SCOPED_TRACE(c.name);
    const Observed serial = PlainRun(experiment, c, 1);
    ASSERT_GT(serial.digest, 0u);
    {
      SCOPED_TRACE("4 threads");
      ExpectSameRun(serial, PlainRun(experiment, c, 4));
    }
    {
      SCOPED_TRACE("stopped and resumed, 1 thread");
      ExpectSameRun(serial, StoppedAndResumedRun(experiment, c, 1, dir));
    }
    {
      // A policy that cannot shard runs the one-shard plan at 4 threads too.
      SCOPED_TRACE("stopped and resumed, 4 threads");
      ExpectSameRun(serial, StoppedAndResumedRun(experiment, c, 4, dir));
    }
    if (c.make().policy->is_function_local()) {
      // 10 threads over 5 regions plan K = 2 cell groups per region.
      SCOPED_TRACE("cells_per_region = 2, 1 vs 10 threads");
      ExpectSameRun(PlainRun(two_cells, c, 1), PlainRun(two_cells, c, 10));
    }
  }
}

TEST(PolicyContractTest, PoolPredictionRefusesCellsAtAttach) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  policy::PoolPredictionPolicy policy;
  EXPECT_DEATH(Experiment(ContractScenario(2)).Run(&policy, 1),
               "cannot run with cells_per_region > 1");
}

}  // namespace
}  // namespace coldstart
