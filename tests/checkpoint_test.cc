// Checkpoint/restore tests: the crash-safety contract. A run that is killed at
// any committed checkpoint and resumed must finish with a trace bit-identical
// to the uninterrupted run — serial and sharded, with and without a policy,
// full and streaming trace modes. Kill-and-resume is exercised for real: the
// child process fork()s, dies mid-run via _exit() from the checkpoint hook,
// and the parent resumes from what actually hit the disk. Corruption tests
// pin the failure mode the subsystem promises: loud death naming the file,
// never a silent half-restore.
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/atomic_file.h"
#include "common/byte_serde.h"
#include "common/crc32.h"
#include "common/framed_file.h"
#include "core/coldstart_lab.h"
#include "temp_dir.h"

namespace coldstart {
namespace {

namespace fs = std::filesystem;

using core::CheckpointPolicy;
using core::Experiment;
using core::ExperimentResult;
using core::ScenarioConfig;

// Small but non-trivial: 5 regions, enough traffic that every record table and
// aggregate is exercised, short enough for the tier1 budget.
ScenarioConfig TinyScenario(core::TraceMode mode = core::TraceMode::kFull) {
  ScenarioConfig config;
  config.days = 3;
  config.scale = 0.05;
  config.trace_mode = mode;
  return config;
}

// A policy stack whose every member implements Save/RestorePolicyState.
std::unique_ptr<policy::CompositePolicy> CheckpointablePolicy() {
  auto combo = std::make_unique<policy::CompositePolicy>();
  combo->Add(std::make_unique<policy::DynamicKeepAlivePolicy>())
      .Add(std::make_unique<policy::WorkflowPrewarmPolicy>())
      .Add(std::make_unique<policy::ProfilePrewarmPolicy>())
      .Add(std::make_unique<policy::PeakShavingPolicy>());
  return combo;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_support::TempPath("coldstart_checkpoint_test").string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// Serializes the streaming sink so two runs can be compared byte-for-byte
// (counters, per-group state, and every histogram bucket).
std::string StreamingBytes(const ExperimentResult& result) {
  ByteWriter w;
  result.streaming.SaveState(w);
  return w.Take();
}

// Runs `config` in a forked child that commits checkpoints into `dir` and
// _exit()s from the on_checkpoint hook once `kill_day` has committed — a real
// mid-run process death, not a simulated one. With `resume`, the child resumes
// from `dir` instead of starting fresh. Returns after reaping the child.
void RunAndKillAtDay(const ScenarioConfig& config, const std::string& dir,
                     int64_t kill_day, int num_threads,
                     platform::PlatformPolicy* policy = nullptr, bool resume = false) {
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
    const Experiment experiment(config);
    if (resume) {
      experiment.ResumeFrom(dir, policy, num_threads, &ckpt);
    } else {
      experiment.Run(policy, num_threads, &ckpt);
    }
    _exit(1);  // Ran to completion — the kill never fired; fail loudly.
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(status), 7) << "child completed instead of dying at day "
                                    << kill_day;
}

// Flips one bit at `offset` in `path`.
void FlipBit(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  if (offset < 0) {
    f.seekg(0, std::ios::end);
    offset = static_cast<int64_t>(f.tellg()) + offset;
  }
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(offset);
  f.write(&byte, 1);
}

// Every file in `dir`, by name, with its bytes.
std::map<std::string, std::string> FilesIn(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

// --- Tentpole: checkpointing never perturbs the run. ---

TEST_F(CheckpointTest, CheckpointedRunMatchesPlainRun) {
  // Five days, so four commits: enough for superseded day files to go.
  ScenarioConfig config = TinyScenario();
  config.days = 5;
  const Experiment experiment(config);
  const ExperimentResult plain = experiment.Run(nullptr, 1);

  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  const ExperimentResult checkpointed = experiment.Run(nullptr, 1, &ckpt);

  ASSERT_GT(plain.store.requests().size(), 1000u);
  EXPECT_EQ(trace::Digest(plain.store), trace::Digest(checkpointed.store));
  EXPECT_EQ(checkpointed.interrupted_at_day, -1);
  // Every interior day boundary committed a segment, a checkpoint and the
  // manifest. The last two day files remain; every segment stays.
  std::set<std::string> expected = {"MANIFEST.bin"};
  for (int64_t day = 1; day < config.days; ++day) {
    expected.insert(checkpoint::SegmentFileName(day, 0));
    if (day + 2 >= config.days) {
      expected.insert(checkpoint::CheckpointFileName(day, 0));
    }
  }
  std::set<std::string> retained;
  for (const auto& [name, bytes] : FilesIn(dir_)) {
    retained.insert(name);
  }
  EXPECT_EQ(retained, expected);
  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  EXPECT_EQ(manifest.days, std::vector<int64_t>{config.days - 1});
  EXPECT_EQ(manifest.fingerprint, config.Fingerprint());
}

// --- Tentpole acceptance: kill at a day boundary, resume, bit-identical. ---

TEST_F(CheckpointTest, KillAndResumeSerialFullTrace) {
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 1);

  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/1);
  const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, 1);

  EXPECT_EQ(resumed.interrupted_at_day, -1);
  ASSERT_GT(uninterrupted.store.requests().size(), 1000u);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
  EXPECT_EQ(uninterrupted.visible_cold_starts, resumed.visible_cold_starts);
  EXPECT_EQ(uninterrupted.cold_start_latency_sum_us,
            resumed.cold_start_latency_sum_us);
  // Every queued event fires and every pending one is in the checkpoint, so
  // the resumed run processes exactly the events the plain run does.
  EXPECT_EQ(uninterrupted.events_processed, resumed.events_processed);

  // The manifest's one day is the whole-run plan, which a resume keeps at any
  // thread count.
  const ExperimentResult four = experiment.ResumeFrom(dir_, nullptr, 4);
  EXPECT_EQ(four.shards, 1u);
  EXPECT_EQ(four.interrupted_at_day, -1);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(four.store));
}

TEST_F(CheckpointTest, KillAndResumeShardedFullTrace) {
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 4);
  ASSERT_GT(uninterrupted.shards, 1u);

  // The kill fires from a worker thread, so sibling shards die wherever they
  // happen to be — the manifest legitimately holds different days per shard.
  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/4);
  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  EXPECT_EQ(manifest.days.size(), config.profiles.size());

  const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, 4);
  EXPECT_EQ(resumed.interrupted_at_day, -1);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
  EXPECT_EQ(uninterrupted.visible_cold_starts, resumed.visible_cold_starts);
  EXPECT_EQ(uninterrupted.events_processed, resumed.events_processed);
}

TEST_F(CheckpointTest, KillAndResumeSubRegionShardedFullTrace) {
  // Sub-region geometry: 4 cells per region -> K=4, so the child commits one
  // checkpoint stream per (region, cell group) — 20 shard ids — and the
  // resume must stitch all of them back bit-identically.
  ScenarioConfig config = TinyScenario();
  config.cells_per_region = 4;
  const Experiment experiment(config);
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 20);
  ASSERT_GT(uninterrupted.shards, 1u);

  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/20);
  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  EXPECT_EQ(manifest.days.size(), config.profiles.size() * 4);

  const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, 20);
  EXPECT_EQ(resumed.interrupted_at_day, -1);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
  EXPECT_EQ(uninterrupted.visible_cold_starts, resumed.visible_cold_starts);

  // And the whole thing must also match the serial run of the same scenario.
  const ExperimentResult serial = experiment.Run(nullptr, 1);
  EXPECT_EQ(trace::Digest(serial.store), trace::Digest(resumed.store));
}

TEST_F(CheckpointTest, SubRegionCheckpointResumesAtAnyThreadCount) {
  // The geometry is the scenario's (K = cells), not the thread count's, so a
  // K=4 checkpoint written at 4 threads resumes on any number of workers.
  ScenarioConfig config = TinyScenario();
  config.cells_per_region = 4;
  const Experiment experiment(config);
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 4);
  const ExperimentResult serial = experiment.Run(nullptr, 1);
  ASSERT_EQ(trace::Digest(uninterrupted.store), trace::Digest(serial.store));

  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/4);
  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  EXPECT_EQ(manifest.days.size(), config.profiles.size() * 4);
  for (const int threads : {1, 2, 20}) {
    SCOPED_TRACE(threads);
    const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, threads);
    EXPECT_EQ(resumed.interrupted_at_day, -1);
    EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
    EXPECT_EQ(uninterrupted.visible_cold_starts, resumed.visible_cold_starts);
  }
}

TEST_F(CheckpointTest, ShardedResumeHonorsSingleThread) {
  // The satellite bugfix this pins: ResumeFrom used to force
  // max(num_threads, 2), overriding an explicit single-threaded request. A
  // sharded manifest must resume correctly on exactly one worker.
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 4);

  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/4);
  const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr,
                                                         /*num_threads=*/1);
  EXPECT_EQ(resumed.interrupted_at_day, -1);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
}

TEST_F(CheckpointTest, KillAndResumeStreamingMode) {
  // The two sides run different plans: an uncheckpointed streaming run shards
  // even on one thread (regions x K shards back to back), while the
  // checkpointed run and its resume take the whole-run plan. So in streaming
  // mode this also checks that the two plans agree across a resume
  // (whole_run_plan.h's RunWholePlan serves the uninterrupted comparisons).
  const ScenarioConfig config = TinyScenario(core::TraceMode::kStreaming);
  const Experiment experiment(config);
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 1);

  RunAndKillAtDay(config, dir_, /*kill_day=*/2, /*num_threads=*/1);
  const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, 1);

  EXPECT_EQ(resumed.interrupted_at_day, -1);
  // The sink state serializes identically: every counter, latency sum, and
  // histogram bucket agrees, not just a summary statistic.
  EXPECT_EQ(StreamingBytes(uninterrupted), StreamingBytes(resumed));
}

TEST_F(CheckpointTest, KillAndResumeWithCheckpointablePolicy) {
  ScenarioConfig config = TinyScenario();
  config.record_requests = false;
  const Experiment experiment(config);

  auto plain_policy = CheckpointablePolicy();
  const ExperimentResult uninterrupted = experiment.Run(plain_policy.get(), 1);

  auto killed_policy = CheckpointablePolicy();
  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/1,
                  killed_policy.get());
  // Resume hands the checkpointed policy state to a *fresh* policy instance —
  // exactly the restart-after-crash situation.
  auto resumed_policy = CheckpointablePolicy();
  const ExperimentResult resumed =
      experiment.ResumeFrom(dir_, resumed_policy.get(), 1);

  EXPECT_EQ(resumed.interrupted_at_day, -1);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
  EXPECT_EQ(uninterrupted.prewarm_spawns, resumed.prewarm_spawns);
}

TEST_F(CheckpointTest, KillAndResumeTimerPrewarmSerialAndSharded) {
  // Timer prewarms are armed up to two hours ahead, so some are pending
  // platform events at the kill boundary: they must ride the checkpoint.
  ScenarioConfig config = TinyScenario();
  config.record_requests = false;
  const Experiment experiment(config);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    fs::remove_all(dir_);
    policy::TimerAwarePrewarmPolicy plain_policy;
    const ExperimentResult uninterrupted = experiment.Run(&plain_policy, threads);
    int64_t spawns = 0;
    for (const int64_t s : uninterrupted.prewarm_spawns) {
      spawns += s;
    }
    ASSERT_GT(spawns, 0);

    policy::TimerAwarePrewarmPolicy killed_policy;
    RunAndKillAtDay(config, dir_, /*kill_day=*/1, threads, &killed_policy);
    policy::TimerAwarePrewarmPolicy resumed_policy;
    const ExperimentResult resumed =
        experiment.ResumeFrom(dir_, &resumed_policy, threads);

    EXPECT_EQ(resumed.interrupted_at_day, -1);
    EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
    EXPECT_EQ(uninterrupted.prewarm_spawns, resumed.prewarm_spawns);
    EXPECT_EQ(plain_policy.prewarms_issued(), resumed_policy.prewarms_issued());
  }
}

TEST_F(CheckpointTest, TwoKillResumeCyclesMatchPlainRun) {
  // Each resume appends segments after the ones it restored, so a second kill
  // must resume from a segment list that two processes wrote. Sub-region
  // sharded runs also change the thread count at every cycle: 4 -> 2 -> 1.
  struct Case {
    uint32_t cells;
    int threads[3];
  };
  for (const Case& c : {Case{1, {1, 1, 1}}, Case{4, {4, 2, 1}}}) {
    SCOPED_TRACE(c.cells);
    fs::remove_all(dir_);
    ScenarioConfig config = TinyScenario();
    config.cells_per_region = c.cells;
    const Experiment experiment(config);
    const ExperimentResult plain = experiment.Run(nullptr, 1);

    RunAndKillAtDay(config, dir_, /*kill_day=*/1, c.threads[0]);
    RunAndKillAtDay(config, dir_, /*kill_day=*/2, c.threads[1], nullptr, /*resume=*/true);
    checkpoint::Manifest manifest;
    ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
    EXPECT_EQ(manifest.days.size(), c.cells > 1 ? config.profiles.size() * c.cells : 1u);
    const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, c.threads[2]);

    EXPECT_EQ(resumed.interrupted_at_day, -1);
    ASSERT_GT(plain.store.requests().size(), 1000u);
    EXPECT_EQ(trace::Digest(plain.store), trace::Digest(resumed.store));
    EXPECT_EQ(plain.visible_cold_starts, resumed.visible_cold_starts);
    EXPECT_EQ(plain.cold_start_latency_sum_us, resumed.cold_start_latency_sum_us);
  }
}

TEST_F(CheckpointTest, OrphanSegmentIsIgnoredAndRewritten) {
  // A kill after a segment is written but before its checkpoint file leaves a
  // segment no committed manifest references. Resume must not read it, and
  // the re-run of that day rewrites it with the uninterrupted run's bytes.
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult plain = experiment.Run(nullptr, 1);
  const std::string reference_dir = dir_ + "_reference";
  fs::remove_all(reference_dir);
  CheckpointPolicy reference;
  reference.dir = reference_dir;
  experiment.Run(nullptr, 1, &reference);

  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/1);
  const std::string name = checkpoint::SegmentFileName(2, 0);
  const fs::path orphan = fs::path(dir_) / name;
  ASSERT_FALSE(fs::exists(orphan));
  std::ofstream(orphan, std::ios::binary) << "an orphan segment, not even framed";
  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  ASSERT_EQ(manifest.days, std::vector<int64_t>{1});

  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, 1, &ckpt);
  EXPECT_EQ(resumed.interrupted_at_day, -1);
  EXPECT_EQ(trace::Digest(plain.store), trace::Digest(resumed.store));
  const auto files = FilesIn(dir_);
  const auto reference_files = FilesIn(reference_dir);
  EXPECT_TRUE(files.at(name) == reference_files.at(name)) << name << " was not rewritten";
  fs::remove_all(reference_dir);
}

TEST_F(CheckpointTest, ResumeDeletesOnlyDayFilesItNames) {
  // A manifest holds each shard's day and nothing else: the day file's name is
  // derived from it, never read back from disk, so a resume opens and prunes
  // only ckpt_day files in its own directory. Files no commit named — one
  // beside the directory, a stray one inside it — outlive the pruning.
  ScenarioConfig config = TinyScenario();
  config.days = 5;
  RunAndKillAtDay(config, dir_, /*kill_day=*/2, /*num_threads=*/1);
  const std::string beside = dir_ + "_beside.bin";
  std::ofstream(beside) << "not a checkpoint";
  std::ofstream(fs::path(dir_) / "stray.bin") << "not a checkpoint either";

  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  ASSERT_EQ(manifest.days, std::vector<int64_t>{2});
  // Frame header, then fingerprint, trace mode, region count and day count,
  // then 8 bytes per shard.
  constexpr uint64_t kManifestHeader = (8 + 8 + 4) + (8 + 1 + 4 + 8);
  EXPECT_EQ(fs::file_size(checkpoint::ManifestPath(dir_)), kManifestHeader + 8);

  const auto names = [this] {
    std::set<std::string> out;
    for (const auto& [name, bytes] : FilesIn(dir_)) {
      out.insert(name);
    }
    return out;
  };
  const std::set<std::string> before = names();
  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  // Commits days 3 and 4: the day-3 commit prunes the day-1 file the killed
  // run left before its seeded day, the day-4 commit the seeded day-2 file.
  // No segment goes.
  const ExperimentResult resumed = Experiment(config).ResumeFrom(dir_, nullptr, 1, &ckpt);
  EXPECT_EQ(resumed.interrupted_at_day, -1);
  const std::set<std::string> after = names();
  std::set<std::string> removed;
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::inserter(removed, removed.end()));
  EXPECT_EQ(removed,
            (std::set<std::string>{checkpoint::CheckpointFileName(1, 0),
                                   checkpoint::CheckpointFileName(2, 0)}));
  EXPECT_TRUE(after.count("stray.bin"));
  EXPECT_TRUE(fs::exists(beside));
  fs::remove(beside);
}

TEST_F(CheckpointTest, SegmentsHoldEachRowOnce) {
  // Append-only: across all of a run's segments every row is written once, so
  // they hold the last commit's tables plus one header per segment — the frame
  // and the four row counts — where whole-store checkpoints grew with days².
  ScenarioConfig config = TinyScenario();
  config.days = 4;
  std::atomic<bool> stop{false};
  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  ckpt.stop = &stop;
  // The flag is seen at the next boundary, which then commits and stops: the
  // result is the store the last commit saw.
  ckpt.on_checkpoint = [&stop, &config](int64_t day, uint32_t) {
    if (day + 2 == config.days) {
      stop.store(true);
    }
  };
  const ExperimentResult last = Experiment(config).Run(nullptr, 1, &ckpt);
  ASSERT_EQ(last.interrupted_at_day, config.days - 1);

  const trace::TraceStore& store = last.store;
  const uint64_t table_bytes =
      store.requests().size() * sizeof(trace::RequestRecord) +
      store.cold_starts().size() * sizeof(trace::ColdStartRecord) +
      store.functions().size() * sizeof(trace::FunctionRecord) +
      store.pods().size() * sizeof(trace::PodLifetimeRecord);
  ASSERT_GT(store.requests().size(), 1000u);
  uint64_t segment_bytes = 0;
  int64_t segments = 0;
  for (int64_t day = 1; day < config.days; ++day) {
    const fs::path seg = fs::path(dir_) / checkpoint::SegmentFileName(day, 0);
    ASSERT_TRUE(fs::exists(seg)) << seg;
    segment_bytes += fs::file_size(seg);
    ++segments;
  }
  constexpr uint64_t kSegmentHeader = (8 + 8 + 4) + 4 * 8;
  EXPECT_EQ(segment_bytes, table_bytes + static_cast<uint64_t>(segments) * kSegmentHeader);
}

// --- Cooperative stop: the SIGINT path, minus the signal. ---

TEST_F(CheckpointTest, StopFlagInterruptsAtBoundaryAndResumes) {
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 1);

  std::atomic<bool> stop{false};
  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  ckpt.stop = &stop;
  ckpt.on_checkpoint = [&stop](int64_t day, uint32_t) {
    if (day >= 1) {
      stop.store(true);
    }
  };
  const ExperimentResult interrupted = experiment.Run(nullptr, 1, &ckpt);
  ASSERT_GT(interrupted.interrupted_at_day, 0);
  ASSERT_LT(interrupted.interrupted_at_day, config.days);

  const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, 1);
  EXPECT_EQ(resumed.interrupted_at_day, -1);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
}

TEST_F(CheckpointTest, InterruptedShardedStoreIsSchedulingIndependent) {
  // Shards fold into the result as they finish, so an interrupted run (which
  // never reaches the final Seal of a completed one) must still put its
  // partial store in an order that does not depend on which shard finished
  // first. The stop flag is set up front, so every shard halts at day 1.
  ScenarioConfig config = TinyScenario();
  config.cells_per_region = 4;
  const Experiment experiment(config);
  auto interrupted = [&](int threads) {
    fs::remove_all(dir_);
    std::atomic<bool> stop{true};
    CheckpointPolicy ckpt;
    ckpt.dir = dir_;
    ckpt.stop = &stop;
    return experiment.Run(nullptr, threads, &ckpt);
  };
  const ExperimentResult four = interrupted(4);
  const ExperimentResult twenty = interrupted(20);
  EXPECT_EQ(four.interrupted_at_day, 1);
  EXPECT_EQ(twenty.interrupted_at_day, 1);
  ASSERT_GT(four.store.requests().size(), 100u);
  EXPECT_EQ(trace::Digest(four.store), trace::Digest(twenty.store));
}

// --- Guard rails: misuse and mismatch fail loudly, up front. ---

TEST_F(CheckpointTest, NonCheckpointablePolicyDiesUpFront) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  // Every shipped policy checkpoints, but a custom one may keep state without
  // serde; asking for checkpoints with it must die before day 1, not at the
  // first checkpoint hours into a real run.
  struct ArrivalCounter : platform::PlatformPolicy {
    void OnArrival(const workload::FunctionSpec&, SimTime) override { ++arrivals; }
    int64_t arrivals = 0;
  } policy;
  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  EXPECT_DEATH(Experiment(config).Run(&policy, 1, &ckpt), "not checkpointable");
}

TEST_F(CheckpointTest, ResumeWithMismatchedConfigDies) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  std::atomic<bool> stop{false};
  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  ckpt.stop = &stop;
  ckpt.on_checkpoint = [&stop](int64_t, uint32_t) { stop.store(true); };
  Experiment(config).Run(nullptr, 1, &ckpt);

  // Same everything except the seed: the fingerprint catches it.
  ScenarioConfig other = config;
  other.seed = 43;
  EXPECT_DEATH(Experiment(other).ResumeFrom(dir_), "fingerprint");

  // The checkpoint carries no model state: the fingerprint alone keeps a
  // resume from running under a different cold-start model.
  ScenarioConfig other_kind = config;
  other_kind.profiles[0].model.kind = workload::ColdStartModelKind::kAwsLike;
  EXPECT_DEATH(Experiment(other_kind).ResumeFrom(dir_), "fingerprint");
  ScenarioConfig snapshot = config;
  snapshot.profiles[0].model.snapshot_restore = true;
  EXPECT_DEATH(Experiment(snapshot).ResumeFrom(dir_), "fingerprint");
}

TEST_F(CheckpointTest, ManifestOfAnotherGeometryDies) {
  // A manifest's length is its plan: one day for the whole run, regions x K
  // days for the shard plan, 1 <= K <= cells. Any other length names no plan,
  // so the resume dies naming the geometry instead of restoring shards from
  // slices that do not line up.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScenarioConfig config = TinyScenario();
  config.cells_per_region = 4;
  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/4);

  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  const size_t regions = config.profiles.size();
  ASSERT_EQ(manifest.days.size(), regions * 4);
  // No day at all; a count that is not a multiple of the region count; and
  // K = 8 on a scenario of 4 cells.
  for (const size_t count : {size_t{0}, regions + 1, regions * 8}) {
    SCOPED_TRACE(count);
    manifest.days.resize(count, 1);
    ASSERT_TRUE(checkpoint::WriteManifest(dir_, manifest));
    EXPECT_DEATH(Experiment(config).ResumeFrom(dir_),
                 "manifest geometry: neither 1 day \\(whole run\\) nor regions x K");
  }
}

// --- Byte reproducibility: identical runs write identical files. ---

TEST_F(CheckpointTest, ManifestBytesDoNotDependOnCommitOrder) {
  // Shards dispatch largest first and commit in thread-timing order; the
  // manifest holds one day per shard all the same. A one-worker resume
  // commits the 20 shards in dispatch order, which is not id order, and
  // leaves the manifest an uninterrupted 4-worker run leaves.
  ScenarioConfig config = TinyScenario();
  config.cells_per_region = 4;
  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/4);
  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  Experiment(config).ResumeFrom(dir_, nullptr, /*num_threads=*/1, &ckpt);
  const std::string reference_dir = dir_ + "_reference";
  fs::remove_all(reference_dir);
  CheckpointPolicy reference;
  reference.dir = reference_dir;
  Experiment(config).Run(nullptr, 4, &reference);

  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  EXPECT_EQ(manifest.days, std::vector<int64_t>(20, config.days - 1));
  EXPECT_TRUE(FilesIn(dir_).at("MANIFEST.bin") == FilesIn(reference_dir).at("MANIFEST.bin"));
  fs::remove_all(reference_dir);
}

// `a` and `b` hold the same file names, each with the same bytes.
void ExpectSameFiles(const fs::path& a, const fs::path& b) {
  const auto files_a = FilesIn(a);
  const auto files_b = FilesIn(b);
  ASSERT_EQ(files_a.size(), files_b.size());
  for (const auto& [name, bytes] : files_a) {
    const auto other = files_b.find(name);
    ASSERT_NE(other, files_b.end()) << name;
    EXPECT_TRUE(bytes == other->second) << name << " differs";
  }
}

TEST_F(CheckpointTest, IdenticalRunsWriteIdenticalBytes) {
  // Record tables are saved raw, so a padding hole would carry whatever the
  // stack held into the file. Two identical runs must write the same bytes.
  const Experiment experiment(TinyScenario());
  const fs::path root(dir_);
  for (const char* sub : {"cache_a", "cache_b"}) {
    ASSERT_FALSE(experiment.RunCached((root / sub).string()).from_cache);
  }
  for (const char* sub : {"ckpt_a", "ckpt_b"}) {
    CheckpointPolicy ckpt;
    ckpt.dir = (root / sub).string();
    experiment.Run(nullptr, 1, &ckpt);
  }

  const auto cache = FilesIn(root / "cache_a");
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.begin()->first.rfind("scenario_v9_", 0), 0u);
  ExpectSameFiles(root / "cache_a", root / "cache_b");

  const auto ckpt = FilesIn(root / "ckpt_a");
  EXPECT_EQ(ckpt.count("MANIFEST.bin"), 1u);
  EXPECT_EQ(ckpt.count(checkpoint::CheckpointFileName(1, 0)), 1u);
  ExpectSameFiles(root / "ckpt_a", root / "ckpt_b");
}

// --- Satellite: corrupted checkpoints die loudly, naming the file. ---

class CheckpointCorruptionTest : public CheckpointTest {
 protected:
  // Produces a valid interrupted checkpoint directory to corrupt.
  void MakeCheckpointDir(const ScenarioConfig& config) {
    std::atomic<bool> stop{false};
    CheckpointPolicy ckpt;
    ckpt.dir = dir_;
    ckpt.stop = &stop;
    ckpt.on_checkpoint = [&stop](int64_t, uint32_t) { stop.store(true); };
    const ExperimentResult r = Experiment(config).Run(nullptr, 1, &ckpt);
    ASSERT_GT(r.interrupted_at_day, 0);
    checkpoint_file_ =
        (fs::path(dir_) / checkpoint::CheckpointFileName(r.interrupted_at_day, 0)).string();
    ASSERT_TRUE(fs::exists(checkpoint_file_));
    segment_file_ =
        (fs::path(dir_) / checkpoint::SegmentFileName(r.interrupted_at_day, 0)).string();
    ASSERT_EQ(fs::exists(segment_file_), config.trace_mode == core::TraceMode::kFull);
  }

  std::string checkpoint_file_;
  std::string segment_file_;  // The rows the interrupted day's commit wrote.
};

// The frame magic `path` opens with.
uint64_t FileMagic(const std::string& path) {
  uint64_t magic = 0;
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return magic;
}

TEST_F(CheckpointCorruptionTest, BitFlippedCheckpointDiesNamingFile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  FlipBit(checkpoint_file_, -100);  // Deep in the payload, past the header.
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_),
               "ckpt_day.*corrupt.*CRC mismatch");
}

TEST_F(CheckpointCorruptionTest, TruncatedCheckpointDiesNamingFile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  fs::resize_file(checkpoint_file_, fs::file_size(checkpoint_file_) / 2);
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_), "ckpt_day.*corrupt");
}

TEST_F(CheckpointCorruptionTest, OtherFormatVersionIsReportedAsSuch) {
  // The committed payload, reframed under the previous format's magic: the
  // version probe names it, and a resume dies saying so rather than "bad
  // magic".
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  EXPECT_EQ(checkpoint::ReadCheckpointVersion(checkpoint_file_),
            checkpoint::CheckpointVersion::kCurrent);
  std::string payload;
  const char* why = nullptr;
  ASSERT_EQ(ReadFramedFile(checkpoint_file_, FileMagic(checkpoint_file_), &payload, &why),
            FrameStatus::kOk);
  constexpr uint64_t kV12Magic = 0x32317674706B6363ull;  // "cckptv12".
  ASSERT_TRUE(WriteFramedFile(checkpoint_file_, kV12Magic, payload));
  EXPECT_EQ(checkpoint::ReadCheckpointVersion(checkpoint_file_),
            checkpoint::CheckpointVersion::kOther);
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_),
               "ckpt_day.*corrupt \\(written in another checkpoint format version\\)");

  const std::string garbage = dir_ + "/garbage.bin";
  std::ofstream(garbage) << "not a checkpoint";
  EXPECT_EQ(checkpoint::ReadCheckpointVersion(garbage),
            checkpoint::CheckpointVersion::kUnrecognized);
  EXPECT_EQ(checkpoint::ReadCheckpointVersion(dir_ + "/absent.bin"),
            checkpoint::CheckpointVersion::kMissing);
}

TEST_F(CheckpointCorruptionTest, OtherManifestVersionIsReportedAsSuch) {
  // The same for the manifest, reframed under manifest v3's magic.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MakeCheckpointDir(TinyScenario());
  EXPECT_EQ(checkpoint::ReadManifestVersion(dir_), checkpoint::CheckpointVersion::kCurrent);
  const std::string manifest_file = checkpoint::ManifestPath(dir_);
  std::string payload;
  const char* why = nullptr;
  ASSERT_EQ(ReadFramedFile(manifest_file, FileMagic(manifest_file), &payload, &why),
            FrameStatus::kOk);
  constexpr uint64_t kV3Magic = 0x33765F74666E6D63ull;  // "cmnft_v3".
  ASSERT_TRUE(WriteFramedFile(manifest_file, kV3Magic, payload));
  EXPECT_EQ(checkpoint::ReadManifestVersion(dir_), checkpoint::CheckpointVersion::kOther);
  checkpoint::Manifest manifest;
  EXPECT_DEATH(checkpoint::ReadManifest(dir_, &manifest),
               "MANIFEST.bin: corrupt \\(written in another manifest format version\\)");

  std::ofstream(manifest_file, std::ios::trunc) << "not a manifest";
  EXPECT_EQ(checkpoint::ReadManifestVersion(dir_),
            checkpoint::CheckpointVersion::kUnrecognized);
  fs::remove(manifest_file);
  EXPECT_EQ(checkpoint::ReadManifestVersion(dir_), checkpoint::CheckpointVersion::kMissing);
}

TEST_F(CheckpointCorruptionTest, CheckResumableNamesEveryRefusal) {
  // The drivers' preflight: "" for a fresh or resumable directory (and which
  // of the two it is), else one line naming the directory and what differs,
  // where ResumeFrom would die.
  const ScenarioConfig config = TinyScenario();
  bool resuming = true;
  EXPECT_EQ(Experiment(config).CheckResumable(dir_, &resuming), "");
  EXPECT_FALSE(resuming);
  MakeCheckpointDir(config);
  EXPECT_EQ(Experiment(config).CheckResumable(dir_, &resuming), "");
  EXPECT_TRUE(resuming);

  ScenarioConfig other_scale = config;
  other_scale.scale = 0.07;
  EXPECT_EQ(Experiment(other_scale).CheckResumable(dir_),
            dir_ + " holds a checkpoint of another run (scenario fingerprint differs); "
                   "use a fresh directory");
  Experiment(other_scale).CheckResumable(dir_, &resuming);
  EXPECT_FALSE(resuming);

  std::string payload;
  const char* why = nullptr;
  ASSERT_EQ(ReadFramedFile(checkpoint_file_, FileMagic(checkpoint_file_), &payload, &why),
            FrameStatus::kOk);
  constexpr uint64_t kV12Magic = 0x32317674706B6363ull;  // "cckptv12".
  ASSERT_TRUE(WriteFramedFile(checkpoint_file_, kV12Magic, payload));
  EXPECT_EQ(Experiment(config).CheckResumable(dir_),
            dir_ + " holds a checkpoint of another format version (" +
                fs::path(checkpoint_file_).filename().string() +
                "); use a fresh directory");

  const std::string manifest_file = checkpoint::ManifestPath(dir_);
  ASSERT_EQ(ReadFramedFile(manifest_file, FileMagic(manifest_file), &payload, &why),
            FrameStatus::kOk);
  constexpr uint64_t kV3Magic = 0x33765F74666E6D63ull;  // "cmnft_v3".
  ASSERT_TRUE(WriteFramedFile(manifest_file, kV3Magic, payload));
  EXPECT_EQ(Experiment(config).CheckResumable(dir_),
            dir_ + " holds a checkpoint of another format version (MANIFEST.bin); "
                   "use a fresh directory");
}

TEST_F(CheckpointCorruptionTest, HugeTableCountDiesOnBoundsCheck) {
  // A CRC-valid segment whose requests-table count exceeds its payload must
  // die on the reader's bounds CHECK, not in the allocator.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  const uint64_t magic = FileMagic(segment_file_);
  std::string payload;
  const char* why = nullptr;
  ASSERT_EQ(ReadFramedFile(segment_file_, magic, &payload, &why), FrameStatus::kOk);
  // The segment's payload opens with the requests-table count.
  const uint64_t huge = uint64_t{1} << 40;
  ASSERT_GT(payload.size(), sizeof(huge));
  std::memcpy(&payload[0], &huge, sizeof(huge));
  ASSERT_TRUE(WriteFramedFile(segment_file_, magic, payload));
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_),
               "CHECK failed: count <= r.Remaining\\(\\) / sizeof\\(Record\\)");
}

TEST_F(CheckpointCorruptionTest, DamagedSegmentDiesNamingFile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  // Deep in the rows, and in the requests-table count (frame header, then the
  // count's sixth byte): a damaged count must read as damage too, not as a
  // bounds CHECK.
  for (const int64_t offset : {int64_t{-100}, int64_t{8 + 8 + 4 + 5}}) {
    SCOPED_TRACE(offset);
    FlipBit(segment_file_, offset);
    EXPECT_DEATH(Experiment(config).ResumeFrom(dir_),
                 "ckpt_day.*seg.*corrupt.*CRC mismatch");
    FlipBit(segment_file_, offset);  // Flip back.
  }
}

TEST_F(CheckpointCorruptionTest, TruncatedSegmentDiesNamingFile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  fs::resize_file(segment_file_, fs::file_size(segment_file_) / 2);
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_), "ckpt_day.*seg.*corrupt");
}

TEST_F(CheckpointCorruptionTest, MissingSegmentDiesNamingFile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  fs::remove(segment_file_);
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_), "ckpt_day.*seg.*missing");
}

TEST_F(CheckpointCorruptionTest, BitFlippedManifestDiesNamingFile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  FlipBit(checkpoint::ManifestPath(dir_), -3);
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_), "MANIFEST.*corrupt");
}

TEST_F(CheckpointCorruptionTest, HugeStreamingFunctionCountDiesOnBoundsCheck) {
  // A CRC-valid streaming checkpoint whose function count exceeds the payload
  // must die on the reader's bounds CHECK, not in the allocator.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario(core::TraceMode::kStreaming);
  MakeCheckpointDir(config);
  checkpoint::CheckpointMeta meta;
  std::string payload;
  ASSERT_TRUE(checkpoint::ReadCheckpointFile(checkpoint_file_, &meta, &payload));
  // No policy: the simulator's now, next_seq and events words, the
  // policy-present byte, then the streaming sink's horizon and function count.
  constexpr size_t kFunctionCountOffset = 8 + 8 + 8 + 1 + 8;
  ASSERT_EQ(payload[8 + 8 + 8], 0);
  const uint64_t huge = uint64_t{1} << 40;
  ASSERT_GT(payload.size(), kFunctionCountOffset + sizeof(huge));
  std::memcpy(&payload[kFunctionCountOffset], &huge, sizeof(huge));
  ASSERT_TRUE(checkpoint::WriteCheckpointFile(checkpoint_file_, meta, payload));
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_),
               "CHECK failed: num_functions <= r.Remaining\\(\\)");
}

TEST_F(CheckpointCorruptionTest, HugeManifestEntryCountDiesOnBoundsCheck) {
  // The same for the manifest's day count, patched and re-CRC'd by hand.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  const std::string path = checkpoint::ManifestPath(dir_);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Frame: magic, payload size, CRC32. Payload: fingerprint, trace mode and
  // region count, then the day count.
  constexpr size_t kFrameHeader = 8 + 8 + 4;
  constexpr size_t kEntryCountOffset = kFrameHeader + 8 + 1 + 4;
  const uint64_t huge = uint64_t{1} << 40;
  ASSERT_GT(bytes.size(), kEntryCountOffset + sizeof(huge));
  std::memcpy(&bytes[kEntryCountOffset], &huge, sizeof(huge));
  const uint32_t crc =
      Crc32(bytes.data() + kFrameHeader, bytes.size() - kFrameHeader);
  std::memcpy(&bytes[8 + 8], &crc, sizeof(crc));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_),
               "CHECK failed: count <= r.Remaining\\(\\) / kMinEntryBytes");
}

// --- Satellite: a corrupted trace cache falls back to a fresh run. ---

// The trace cache file RunCached wrote under `dir` ("" when there is none).
std::string CacheFileIn(const std::string& dir) {
  std::string cache_file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".bin") {
      cache_file = entry.path().string();
    }
  }
  return cache_file;
}

TEST_F(CheckpointTest, CorruptedCacheFileIsRejectedAndRegenerated) {
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult fresh = experiment.RunCached(dir_);
  ASSERT_FALSE(fresh.from_cache);
  const ExperimentResult hit = experiment.RunCached(dir_);
  ASSERT_TRUE(hit.from_cache);

  // Find the cache file and flip one payload bit — the CRC must reject it and
  // the runner must fall back to a fresh (identical) simulation.
  const std::string cache_file = CacheFileIn(dir_);
  ASSERT_FALSE(cache_file.empty());
  FlipBit(cache_file, -50);
  testing::internal::CaptureStderr();
  const ExperimentResult refreshed = experiment.RunCached(dir_);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(refreshed.from_cache);
  EXPECT_NE(log.find("CRC mismatch"), std::string::npos) << log;
  EXPECT_EQ(trace::Digest(fresh.store), trace::Digest(refreshed.store));

  // The fallback rewrote a valid cache file.
  const ExperimentResult rehit = experiment.RunCached(dir_);
  EXPECT_TRUE(rehit.from_cache);
  EXPECT_EQ(trace::Digest(fresh.store), trace::Digest(rehit.store));
}

TEST_F(CheckpointTest, ForeignCacheFilesAreMissesNotAborts) {
  // A cache file from a build with another record layout, or one in the old
  // (pre-frame) format, is a miss: the run recomputes the identical trace and
  // rewrites a file that hits next time.
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult fresh = experiment.RunCached(dir_);
  ASSERT_FALSE(fresh.from_cache);
  const std::string cache_file = CacheFileIn(dir_);
  ASSERT_FALSE(cache_file.empty());
  const auto expect_miss_then_hit = [&](const char* what) {
    const ExperimentResult miss = experiment.RunCached(dir_);
    EXPECT_FALSE(miss.from_cache) << what;
    EXPECT_EQ(trace::Digest(fresh.store), trace::Digest(miss.store)) << what;
    const ExperimentResult hit = experiment.RunCached(dir_);
    EXPECT_TRUE(hit.from_cache) << what;
    EXPECT_EQ(trace::Digest(fresh.store), trace::Digest(hit.store)) << what;
  };

  // The payload opens with the record-layout word; patch it and re-frame.
  uint64_t magic = 0;
  {
    std::ifstream in(cache_file, std::ios::binary);
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  }
  std::string payload;
  const char* why = nullptr;
  ASSERT_EQ(ReadFramedFile(cache_file, magic, &payload, &why), FrameStatus::kOk);
  payload[0] = static_cast<char>(payload[0] ^ 0x01);
  ASSERT_TRUE(WriteFramedFile(cache_file, magic, payload));
  expect_miss_then_hit("patched layout word");

  // A file that starts with the old "CSLB" v6 magic.
  {
    std::ofstream out(cache_file, std::ios::binary | std::ios::trunc);
    const uint64_t v6_magic = 0x434C534200000006ull;
    out.write(reinterpret_cast<const char*>(&v6_magic), sizeof(v6_magic));
    out << std::string(80, '\0');
  }
  expect_miss_then_hit("old CSLB v6 file");
}

// --- Satellite: AtomicFile and CRC32 primitives. ---

TEST(AtomicFileTest, CommitPublishesAbandonDoesNot) {
  const fs::path dir = testing_support::TempPath("coldstart_atomic_file_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "target.bin").string();

  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.Write("v1", 2));
    ASSERT_TRUE(f.Commit());
  }
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(fs::file_size(path), 2u);

  // An abandoned rewrite leaves the committed version untouched and no temp
  // file behind — the crash-mid-write contract.
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.Write("garbage", 7));
    f.Abandon();
  }
  EXPECT_EQ(fs::file_size(path), 2u);
  int files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1);
  fs::remove_all(dir);
}

// The CRC one bit at a time, straight from the polynomial.
uint32_t BitwiseCrc32(const unsigned char* p, size_t size) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

// Every kernel this CPU runs, named: slicing-by-8 always, the carry-less
// fold wherever the CPU has PCLMULQDQ.
std::vector<std::pair<const char*, Crc32Kernel>> Crc32Kernels() {
  std::vector<std::pair<const char*, Crc32Kernel>> kernels = {
      {"slicing-by-8", Crc32SliceBy8}};
  if (Crc32CarrylessKernel() != nullptr) {
    kernels.emplace_back("carry-less", Crc32CarrylessKernel());
  }
  return kernels;
}

TEST(Crc32Test, MatchesBitwiseReference) {
  std::vector<unsigned char> buf((size_t{1} << 20) + 16);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(x >> 56);
  }
  const uint32_t megabyte = BitwiseCrc32(buf.data() + 3, size_t{1} << 20);
  EXPECT_EQ(Crc32(buf.data() + 3, size_t{1} << 20), megabyte);
  for (const auto& [name, crc] : Crc32Kernels()) {
    // Every length 0-300 at every start offset within a 16-byte block:
    // neither the eight-byte loads nor the 16-byte folds may care about
    // alignment, and the lengths cross the fold kernel's 64-byte entry and
    // several of its 16- and 64-byte steps.
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= 300; ++len) {
        ASSERT_EQ(crc(buf.data() + offset, len, 0), BitwiseCrc32(buf.data() + offset, len))
            << name << " offset " << offset << " length " << len;
      }
    }
    EXPECT_EQ(crc(buf.data() + 3, size_t{1} << 20, 0), megabyte) << name;
    // Chaining at every split point equals one shot over the whole, with
    // either side of the split on either kernel.
    const unsigned char* p = buf.data() + 1;
    constexpr size_t kLen = 300;
    const uint32_t whole = BitwiseCrc32(p, kLen);
    for (const auto& [other_name, other] : Crc32Kernels()) {
      for (size_t split = 0; split <= kLen; ++split) {
        ASSERT_EQ(other(p + split, kLen - split, crc(p, split, 0)), whole)
            << name << " then " << other_name << ", split " << split;
      }
    }
  }
}

TEST(Crc32Test, PicksTheCarrylessKernelWhereTheCpuHasIt) {
  const Crc32Kernel carryless = Crc32CarrylessKernel();
#if defined(__x86_64__)
  EXPECT_EQ(carryless != nullptr,
            __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"));
#else
  EXPECT_EQ(carryless, nullptr);
#endif
}

TEST(Crc32Test, KnownAnswerAndChaining) {
  // The IEEE CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Chaining over a split buffer equals one shot over the whole.
  const uint32_t first = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, first), 0xCBF43926u);
  EXPECT_NE(Crc32("123456788", 9), 0xCBF43926u);
}

}  // namespace
}  // namespace coldstart
