// ForecastPrewarmPolicy end-to-end tests: the SPES-style forecaster's
// mitigation effect, the statistical acceptance criterion (strictly fewer
// cold starts than the fixed keep-alive baseline at equal-or-lower ledger
// pod-seconds on a diurnal scenario), the determinism contract (serial ==
// region-sharded == sub-region K=4, bit-identical streaming and ledger
// bytes), policy-state serde, and kill-and-resume through a real fork/_exit
// process death.
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "common/byte_serde.h"
#include "core/coldstart_lab.h"
#include "policy/forecast.h"
#include "whole_run_plan.h"

namespace coldstart {
namespace {

namespace fs = std::filesystem;

using core::CheckpointPolicy;
using core::Experiment;
using core::ExperimentResult;
using core::ScenarioConfig;
using policy::ForecastPrewarmPolicy;
using workload::FunctionSpec;

// Diurnal aggregate scenario, small enough for the tier1 budget.
ScenarioConfig ForecastScenario() {
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.1;
  config.record_requests = false;
  config.trace_mode = core::TraceMode::kStreaming;
  return config;
}

int64_t TotalColdStarts(const ExperimentResult& result) {
  return std::accumulate(result.visible_cold_starts.begin(),
                         result.visible_cold_starts.end(), int64_t{0});
}

std::string StreamingBytes(const ExperimentResult& result) {
  ByteWriter w;
  result.streaming.SaveState(w);
  return w.Take();
}

std::string LedgerBytes(const ExperimentResult& result) {
  ByteWriter w;
  result.cost_ledger.SaveState(w);
  return w.Take();
}

// Same 20-timer micro-scenario as policy_test.cc: 5-minute periods, one day,
// 288 fires per function, every fire a cold start at baseline.
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

// --- Mitigation effect on predictable timers. --------------------------------

TEST(ForecastPolicyTest, CutsTimerColdStartsViaPrewarm) {
  const auto baseline = RunTimerScenario(nullptr);
  ForecastPrewarmPolicy policy;
  const auto with_policy = RunTimerScenario(&policy);

  ASSERT_GT(baseline.cold_starts, 5000);
  // 5-minute IATs sit beyond prewarm_min_iat: the policy prewarms each fire
  // instead of holding pods warm, converting user-visible cold starts into
  // background spawns after the min_samples warm-up.
  EXPECT_LT(with_policy.cold_starts, baseline.cold_starts / 3);
  EXPECT_GT(with_policy.prewarms, 1000);
  EXPECT_GT(policy.prewarms_issued(), 1000);
  // Long-IAT functions get curtailed keep-alives: the next fire is prewarmed,
  // so holding the served pod would be pure idle cost.
  EXPECT_GT(policy.keepalive_curtailed(), 0);
  EXPECT_EQ(policy.tracked_functions(), 20);
}

// --- Statistical acceptance: better latency at equal-or-lower cost. ----------

TEST(ForecastPolicyTest, BeatsFixedKeepAliveOnDiurnalScenario) {
  const ScenarioConfig config = ForecastScenario();
  const Experiment experiment(config);

  const ExperimentResult baseline = experiment.Run(nullptr, 1);
  ForecastPrewarmPolicy policy;
  const ExperimentResult forecast = experiment.Run(&policy, 1);

  ASSERT_GT(TotalColdStarts(baseline), 0);
  // The acceptance criterion from the frontier study: strictly fewer visible
  // cold starts than the fixed keep-alive baseline, without paying for it in
  // ledger pod-seconds. Both runs are seeded and deterministic, so these are
  // exact comparisons, not flaky thresholds.
  EXPECT_LT(TotalColdStarts(forecast), TotalColdStarts(baseline));
  EXPECT_LE(forecast.cost_ledger.TotalRecord().pod_seconds(),
            baseline.cost_ledger.TotalRecord().pod_seconds());
}

// --- Determinism: serial == region-sharded == sub-region K=4. ----------------

TEST(ForecastPolicyTest, SerialShardedAndSubRegionShardedBitIdentical) {
  ScenarioConfig config = ForecastScenario();
  config.cells_per_region = 4;
  const Experiment experiment(config);

  ForecastPrewarmPolicy serial_policy;
  const ExperimentResult serial = testing_support::RunWholePlan(experiment, &serial_policy);
  ForecastPrewarmPolicy sharded_policy;
  const ExperimentResult sharded = experiment.Run(&sharded_policy, 5);
  ASSERT_GT(sharded.shards, 1u);
  ForecastPrewarmPolicy subregion_policy;
  const ExperimentResult subregion = experiment.Run(&subregion_policy, 20);

  EXPECT_EQ(serial.visible_cold_starts, sharded.visible_cold_starts);
  EXPECT_EQ(serial.visible_cold_starts, subregion.visible_cold_starts);
  EXPECT_EQ(serial.prewarm_spawns, sharded.prewarm_spawns);
  EXPECT_EQ(serial.prewarm_spawns, subregion.prewarm_spawns);

  // Bit-identical aggregates: every counter and histogram bucket of the
  // streaming sink, and every ledger field, across all three geometries.
  const std::string serial_stream = StreamingBytes(serial);
  EXPECT_EQ(serial_stream, StreamingBytes(sharded));
  EXPECT_EQ(serial_stream, StreamingBytes(subregion));
  const std::string serial_ledger = LedgerBytes(serial);
  EXPECT_EQ(serial_ledger, LedgerBytes(sharded));
  EXPECT_EQ(serial_ledger, LedgerBytes(subregion));

  // Absorbed shard counters agree with the serial policy's.
  EXPECT_GT(serial_policy.prewarms_issued(), 0);
  EXPECT_EQ(serial_policy.prewarms_issued(), sharded_policy.prewarms_issued());
  EXPECT_EQ(serial_policy.prewarms_issued(), subregion_policy.prewarms_issued());
  EXPECT_EQ(serial_policy.keepalive_extended(),
            sharded_policy.keepalive_extended());
  EXPECT_EQ(serial_policy.keepalive_extended(),
            subregion_policy.keepalive_extended());
  EXPECT_EQ(serial_policy.keepalive_curtailed(),
            sharded_policy.keepalive_curtailed());
  EXPECT_EQ(serial_policy.keepalive_curtailed(),
            subregion_policy.keepalive_curtailed());
}

// --- Serde: policy state round trips byte-stably. ----------------------------

TEST(ForecastPolicyTest, PolicyStateRoundTripByteStable) {
  ForecastPrewarmPolicy policy;
  RunTimerScenario(&policy);
  ASSERT_GT(policy.tracked_functions(), 0);
  std::string blob;
  ASSERT_TRUE(policy.SavePolicyState(&blob));
  EXPECT_FALSE(blob.empty());

  ForecastPrewarmPolicy restored;
  ASSERT_TRUE(restored.RestorePolicyState(blob));
  EXPECT_EQ(restored.tracked_functions(), policy.tracked_functions());
  EXPECT_EQ(restored.prewarms_issued(), policy.prewarms_issued());
  EXPECT_EQ(restored.keepalive_extended(), policy.keepalive_extended());
  EXPECT_EQ(restored.keepalive_curtailed(), policy.keepalive_curtailed());
  // Byte-stable round trip: sorted function ids and the ordered pending map
  // keep hash order out of the blob.
  std::string blob2;
  ASSERT_TRUE(restored.SavePolicyState(&blob2));
  EXPECT_EQ(blob, blob2);
}

TEST(ForecastPolicyTest, CloneForShardCopiesConfiguration) {
  ForecastPrewarmPolicy::Options options;
  options.forecaster.min_confidence = 0.9;
  options.max_horizon = 6 * kHour;
  const ForecastPrewarmPolicy policy(options);
  const auto clone = policy.CloneForShard();
  ASSERT_NE(clone, nullptr);
  const auto& typed = static_cast<const ForecastPrewarmPolicy&>(*clone);
  EXPECT_EQ(typed.options().Fingerprint(), options.Fingerprint());
  EXPECT_EQ(typed.tracked_functions(), 0);
  EXPECT_TRUE(policy.is_function_local());
}

// --- Crash safety: kill-and-resume is bit-identical. -------------------------

// Forked child commits checkpoints into `dir` and _exit()s from the
// on_checkpoint hook once `kill_day` committed — a real mid-run death.
void RunAndKillAtDay(const ScenarioConfig& config, const std::string& dir,
                     int64_t kill_day, int num_threads,
                     platform::PlatformPolicy* policy) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    CheckpointPolicy ckpt;
    ckpt.dir = dir;
    ckpt.on_checkpoint = [kill_day](int64_t day, uint32_t) {
      if (day >= kill_day) {
        _exit(7);  // Hard death: no unwinding, no flushes beyond the commit.
      }
    };
    Experiment(config).Run(policy, num_threads, &ckpt);
    _exit(1);  // Ran to completion — the kill never fired; fail loudly.
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(status), 7)
      << "child completed instead of dying at day " << kill_day;
}

class ForecastCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "coldstart_forecast_ckpt_test").string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ForecastCheckpointTest, KillAndResumeBitIdentical) {
  ScenarioConfig config;
  config.days = 3;
  config.scale = 0.05;
  config.record_requests = false;
  config.trace_mode = core::TraceMode::kStreaming;
  const Experiment experiment(config);

  ForecastPrewarmPolicy plain_policy;
  const ExperimentResult uninterrupted = experiment.Run(&plain_policy, 1);

  ForecastPrewarmPolicy killed_policy;
  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/1,
                  &killed_policy);
  // Resume hands the checkpointed forecaster state (rings, diurnal profiles,
  // pending fires) to a *fresh* policy instance — the restart-after-crash
  // situation the serde contract exists for.
  ForecastPrewarmPolicy resumed_policy;
  const ExperimentResult resumed =
      experiment.ResumeFrom(dir_, &resumed_policy, 1);

  EXPECT_EQ(resumed.interrupted_at_day, -1);
  EXPECT_EQ(StreamingBytes(uninterrupted), StreamingBytes(resumed));
  EXPECT_EQ(LedgerBytes(uninterrupted), LedgerBytes(resumed));
  EXPECT_EQ(uninterrupted.prewarm_spawns, resumed.prewarm_spawns);
  EXPECT_EQ(uninterrupted.visible_cold_starts, resumed.visible_cold_starts);
}

}  // namespace
}  // namespace coldstart
