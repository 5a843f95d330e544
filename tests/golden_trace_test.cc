// Golden-trace regression test: end-to-end SmallScenario() runs, digested and
// compared against checked-in golden digests. Any unintended behavioral drift —
// an extra RNG draw, a reordered event, a changed component latency — shows up
// here as a digest mismatch, with instructions to regenerate when the change is
// intentional.
//
// The golden digest covers the full sealed TraceStore (every field of every
// record) plus the per-region platform aggregates, so serial and sharded runs
// must both reproduce it (they are bit-identical by contract). Two geometries
// are pinned: the paper's one pool per region, and four capacity cells per
// region, whose per-cell RNG fork, pod-id prefix and request-id salt a
// same-build serial == sharded comparison cannot see drift in.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/coldstart_lab.h"

namespace coldstart {
namespace {

uint64_t AggregateDigest(const core::ExperimentResult& result) {
  uint64_t h = HashString("aggregate-digest-v1");
  const auto mix_vec = [&h](const std::vector<int64_t>& v) {
    h = MixHash(h, v.size());
    for (const int64_t x : v) {
      h = MixHash(h, static_cast<uint64_t>(x));
    }
  };
  mix_vec(result.visible_cold_starts);
  mix_vec(result.prewarm_spawns);
  mix_vec(result.delayed_allocations);
  mix_vec(result.scratch_allocations);
  mix_vec(result.cold_start_latency_sum_us);
  return h;
}

// Runs `config` and compares its digest with tests/golden/`file`.
void ExpectMatchesGolden(const core::ScenarioConfig& config, const std::string& file) {
  const std::string path = std::string(COLDSTART_GOLDEN_DIR) + "/" + file;
  const core::Experiment experiment(config);
  const core::ExperimentResult result = experiment.Run();
  ASSERT_GT(result.store.requests().size(), 10000u);

  char digest[64];
  std::snprintf(digest, sizeof(digest), "%016llx-%016llx",
                static_cast<unsigned long long>(trace::Digest(result.store)),
                static_cast<unsigned long long>(AggregateDigest(result)));

  if (std::getenv("COLDSTART_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << digest << "\n";
    out.close();
    GTEST_SKIP() << "golden digest regenerated: " << path << " = " << digest
                 << " — commit the file.";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — generate it with:\n  COLDSTART_UPDATE_GOLDENS=1 ctest -R golden_trace_test";
  std::string expected;
  in >> expected;
  EXPECT_EQ(expected, digest)
      << "SmallScenario() output drifted from the checked-in golden digest.\n"
      << "If this behavioral change is INTENDED, regenerate the golden with:\n"
      << "  COLDSTART_UPDATE_GOLDENS=1 ctest -R golden_trace_test\n"
      << "and commit tests/golden/" << file << ". If it is NOT intended,\n"
      << "a change in this PR perturbed simulation behavior (RNG draw order,\n"
      << "event ordering, or model constants) — find it before shipping.";
}

TEST(GoldenTraceTest, SmallScenarioMatchesCheckedInDigest) {
  ExpectMatchesGolden(core::SmallScenario(), "small_scenario.digest");
}

TEST(GoldenTraceTest, SmallScenarioFourCellsMatchesCheckedInDigest) {
  core::ScenarioConfig config = core::SmallScenario();
  config.cells_per_region = 4;
  ExpectMatchesGolden(config, "small_scenario_cells4.digest");
}

}  // namespace
}  // namespace coldstart
