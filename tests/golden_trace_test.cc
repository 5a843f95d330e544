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
//
// A third golden pins stored bytes rather than behavior: every file that the
// checkpoint writer, the trace cache and the frontier point cache leave on
// disk, hashed per directory (tests/golden/checkpoint_bytes.digest). A change
// to any payload layout, or to the order its fields travel in, shows up there
// even when the resumed trace still matches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/coldstart_lab.h"
#include "temp_dir.h"

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

// Reads tests/golden/`file` into `expected`, or rewrites it with `actual` when
// COLDSTART_UPDATE_GOLDENS is set. False when there is nothing to compare: the
// file was regenerated (the caller skips) or is missing (a failure).
bool ReadOrUpdateGolden(const std::string& file, const std::string& actual,
                        std::string* expected) {
  const std::string path = std::string(COLDSTART_GOLDEN_DIR) + "/" + file;
  if (std::getenv("COLDSTART_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    out.close();
    return false;
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good())
      << "missing golden file " << path
      << " — generate it with:\n  COLDSTART_UPDATE_GOLDENS=1 ctest -R golden_trace_test";
  std::ostringstream text;
  text << in.rdbuf();
  *expected = text.str();
  return in.good();
}

// Runs `config` and compares its digest with tests/golden/`file`.
void ExpectMatchesGolden(const core::ScenarioConfig& config, const std::string& file) {
  const core::Experiment experiment(config);
  const core::ExperimentResult result = experiment.Run();
  ASSERT_GT(result.store.requests().size(), 10000u);

  char digest[64];
  std::snprintf(digest, sizeof(digest), "%016llx-%016llx\n",
                static_cast<unsigned long long>(trace::Digest(result.store)),
                static_cast<unsigned long long>(AggregateDigest(result)));
  std::string expected;
  if (!ReadOrUpdateGolden(file, digest, &expected)) {
    GTEST_SKIP() << "golden digest regenerated: tests/golden/" << file
                 << " — commit the file.";
  }
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

namespace fs = std::filesystem;

// Every file of `dir`, in file-name order: its name and its bytes.
uint64_t DirDigest(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  uint64_t h = HashString("checkpoint-bytes-v1");
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    h = MixHash(h, HashString(file.filename().string()));
    h = MixHash(h, HashString(bytes));
  }
  return h;
}

// One "<case> <file count> <digest>" line per directory the writers filled.
class StoredBytes {
 public:
  StoredBytes() : root_(testing_support::TempPath("coldstart_checkpoint_bytes")) {
    fs::remove_all(root_);
  }
  ~StoredBytes() { fs::remove_all(root_); }

  fs::path Dir(const std::string& name) const { return root_ / name; }

  void Add(const std::string& name) {
    const fs::path dir = Dir(name);
    const auto files = std::distance(fs::directory_iterator(dir), fs::directory_iterator());
    char line[160];
    std::snprintf(line, sizeof(line), "%s %td %016llx\n", name.c_str(), files,
                  static_cast<unsigned long long>(DirDigest(dir)));
    text_ += line;
  }

  const std::string& text() const { return text_; }

 private:
  fs::path root_;
  std::string text_;
};

// SmallScenario at 3 days with a commit every day.
core::ScenarioConfig CheckpointedScenario(core::TraceMode mode) {
  core::ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  config.trace_mode = mode;
  return config;
}

void RunCheckpointed(const core::ScenarioConfig& config, platform::PlatformPolicy* policy,
                     int threads, const fs::path& dir) {
  core::CheckpointPolicy every_day;
  every_day.dir = dir.string();
  const core::ExperimentResult result =
      core::Experiment(config).Run(policy, threads, &every_day);
  ASSERT_EQ(result.interrupted_at_day, -1);
}

TEST(GoldenTraceTest, StoredBytesMatchCheckedInDigest) {
  StoredBytes stored;
  for (const core::TraceMode mode : {core::TraceMode::kFull, core::TraceMode::kStreaming}) {
    const std::string name = mode == core::TraceMode::kFull ? "full" : "streaming";
    // One thread takes the whole-run plan, four the region plan.
    for (const int threads : {1, 4}) {
      const std::string dir = name + (threads == 1 ? "_whole_run" : "_regions");
      RunCheckpointed(CheckpointedScenario(mode), nullptr, threads, stored.Dir(dir));
      stored.Add(dir);
    }
  }
  for (const core::FrontierCandidate& candidate : core::ShippedFrontierCandidates()) {
    std::unique_ptr<platform::PlatformPolicy> policy =
        candidate.make_policy ? candidate.make_policy() : nullptr;
    const std::string dir = "policy_" + candidate.name;
    RunCheckpointed(CheckpointedScenario(core::TraceMode::kStreaming), policy.get(), 1,
                    stored.Dir(dir));
    stored.Add(dir);
  }
  core::Experiment(CheckpointedScenario(core::TraceMode::kFull))
      .RunCached(stored.Dir("trace_cache").string());
  stored.Add("trace_cache");
  core::RunFrontier(CheckpointedScenario(core::TraceMode::kStreaming),
                    {core::ShippedFrontierCandidates().front()}, 1,
                    stored.Dir("frontier_point").string());
  stored.Add("frontier_point");

  std::string expected;
  if (!ReadOrUpdateGolden("checkpoint_bytes.digest", stored.text(), &expected)) {
    GTEST_SKIP() << "golden digest regenerated: tests/golden/checkpoint_bytes.digest"
                 << " — commit the file.";
  }
  EXPECT_EQ(expected, stored.text())
      << "Stored checkpoint, trace-cache or frontier-cache bytes drifted from\n"
      << "tests/golden/checkpoint_bytes.digest. Every format version, magic and\n"
      << "fingerprint salt promises the same bytes: if a layout changed on\n"
      << "purpose, bump the version it belongs to and regenerate with\n"
      << "  COLDSTART_UPDATE_GOLDENS=1 ctest -R golden_trace_test";
}

}  // namespace
}  // namespace coldstart
