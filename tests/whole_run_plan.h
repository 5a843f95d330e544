// Test helper: run an experiment on the whole-run plan.
//
// A one-thread kStreaming run without a CheckpointPolicy takes the scenario's
// shard plan (its shards run back to back), so `Run(policy, 1)` no longer
// exercises the whole-run plan in streaming mode. A one-thread run under a
// CheckpointPolicy still takes it; RunWholePlan passes one that never fires,
// so only the plan changes. Tests that pin "serial == sharded" run their
// serial side through here.
#ifndef COLDSTART_TESTS_WHOLE_RUN_PLAN_H_
#define COLDSTART_TESTS_WHOLE_RUN_PLAN_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/experiment.h"
#include "temp_dir.h"

namespace coldstart::testing_support {

inline core::ExperimentResult RunWholePlan(const core::Experiment& experiment,
                                           platform::PlatformPolicy* policy = nullptr) {
  namespace fs = std::filesystem;
  // Named after the running test, so test binaries that ctest runs side by
  // side never share the directory.
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      TempPath(std::string("coldstart_whole_run_") + test->test_suite_name() + "_" +
               test->name());
  fs::remove_all(dir);
  core::CheckpointPolicy never;
  never.dir = dir.string();
  never.every_n_days = experiment.config().days + 1;
  core::ExperimentResult result = experiment.Run(policy, 1, &never);
  fs::remove_all(dir);
  EXPECT_EQ(result.shards, 1u) << "RunWholePlan ran a shard plan";
  return result;
}

}  // namespace coldstart::testing_support

#endif  // COLDSTART_TESTS_WHOLE_RUN_PLAN_H_
