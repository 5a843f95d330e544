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

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "checkpoint/checkpoint.h"
#include "common/atomic_file.h"
#include "common/byte_serde.h"
#include "common/crc32.h"
#include "core/coldstart_lab.h"

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
    dir_ = (fs::temp_directory_path() / "coldstart_checkpoint_test").string();
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
// mid-run process death, not a simulated one. Returns after reaping the child.
void RunAndKillAtDay(const ScenarioConfig& config, const std::string& dir,
                     int64_t kill_day, int num_threads,
                     platform::PlatformPolicy* policy = nullptr) {
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

// --- Tentpole: checkpointing never perturbs the run. ---

TEST_F(CheckpointTest, CheckpointedRunMatchesPlainRun) {
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult plain = experiment.Run(nullptr, 1);

  CheckpointPolicy ckpt;
  ckpt.dir = dir_;
  const ExperimentResult checkpointed = experiment.Run(nullptr, 1, &ckpt);

  ASSERT_GT(plain.store.requests().size(), 1000u);
  EXPECT_EQ(trace::Digest(plain.store), trace::Digest(checkpointed.store));
  EXPECT_EQ(checkpointed.interrupted_at_day, -1);
  // Every interior day boundary committed a checkpoint plus the manifest.
  for (int64_t day = 1; day < config.days; ++day) {
    EXPECT_TRUE(fs::exists(fs::path(dir_) /
                           checkpoint::CheckpointFileName(day, checkpoint::kSerialShard)))
        << "missing checkpoint for day " << day;
  }
  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  EXPECT_FALSE(manifest.sharded);
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
}

TEST_F(CheckpointTest, KillAndResumeShardedFullTrace) {
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  ASSERT_TRUE(experiment.CanShard(nullptr));
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 4);

  // The kill fires from a worker thread, so sibling shards die wherever they
  // happen to be — the manifest legitimately holds different days per shard.
  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/4);
  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  EXPECT_TRUE(manifest.sharded);

  const ExperimentResult resumed = experiment.ResumeFrom(dir_, nullptr, 4);
  EXPECT_EQ(resumed.interrupted_at_day, -1);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
  EXPECT_EQ(uninterrupted.visible_cold_starts, resumed.visible_cold_starts);
}

TEST_F(CheckpointTest, KillAndResumeSubRegionShardedFullTrace) {
  // Sub-region geometry: 4 cells per region -> K=4, so the child commits one
  // checkpoint stream per (region, cell group) — 20 shard ids — and the
  // resume must stitch all of them back bit-identically.
  ScenarioConfig config = TinyScenario();
  config.cells_per_region = 4;
  const Experiment experiment(config);
  ASSERT_TRUE(experiment.CanShard(nullptr));
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 20);

  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/20);
  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  EXPECT_TRUE(manifest.sharded);
  EXPECT_EQ(manifest.shards_per_region, 4u);

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
  EXPECT_TRUE(manifest.sharded);
  EXPECT_EQ(manifest.shards_per_region, 4u);
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

TEST_F(CheckpointTest, StaleShardEntryFromDifferentGeometryDies) {
  // The satellite bugfix this pins: manifest entries are matched by a linear
  // (shard, day) scan, so an entry written under a larger K used to survive a
  // resume with a smaller one and silently restore the wrong state slice. The
  // resume must instead reject any entry outside regions x shards_per_region.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScenarioConfig config = TinyScenario();
  config.cells_per_region = 4;
  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/20);

  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  ASSERT_EQ(manifest.shards_per_region, 4u);
  ASSERT_FALSE(manifest.entries.empty());
  // Rewrite the manifest claiming K=1, with an entry whose shard id only
  // existed under the larger geometry — a stale leftover. (The kill fires at
  // the first commit, so which shard ids committed is scheduling-dependent;
  // fabricate the out-of-range one deterministically.)
  manifest.shards_per_region = 1;
  checkpoint::ManifestEntry stale = manifest.entries.front();
  stale.shard = manifest.num_regions + 2;  // >= regions x K once K claims 1.
  manifest.entries = {stale};
  ASSERT_TRUE(checkpoint::WriteManifest(dir_, manifest));
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_), "stale");
}

TEST_F(CheckpointTest, DuplicateManifestEntryDies) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  RunAndKillAtDay(config, dir_, /*kill_day=*/1, /*num_threads=*/4);

  checkpoint::Manifest manifest;
  ASSERT_TRUE(checkpoint::ReadManifest(dir_, &manifest));
  ASSERT_FALSE(manifest.entries.empty());
  manifest.entries.push_back(manifest.entries.front());
  ASSERT_TRUE(checkpoint::WriteManifest(dir_, manifest));
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_), "twice");
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
        (fs::path(dir_) / checkpoint::CheckpointFileName(
                              r.interrupted_at_day, checkpoint::kSerialShard))
            .string();
    ASSERT_TRUE(fs::exists(checkpoint_file_));
  }

  std::string checkpoint_file_;
};

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

TEST_F(CheckpointCorruptionTest, HugeTableCountDiesOnBoundsCheck) {
  // A CRC-valid checkpoint whose requests-table count exceeds the payload must
  // die on the reader's bounds CHECK, not in the allocator.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  checkpoint::CheckpointMeta meta;
  std::string payload;
  ASSERT_TRUE(checkpoint::ReadCheckpointFile(checkpoint_file_, &meta, &payload));
  // No policy: the simulator's now, next_seq and events words, then the
  // policy-present byte, then the kFull sink's requests-table count.
  constexpr size_t kRequestCountOffset = 8 + 8 + 8 + 1;
  ASSERT_EQ(payload[kRequestCountOffset - 1], 0);
  const uint64_t huge = uint64_t{1} << 40;
  ASSERT_GT(payload.size(), kRequestCountOffset + sizeof(huge));
  std::memcpy(&payload[kRequestCountOffset], &huge, sizeof(huge));
  ASSERT_TRUE(checkpoint::WriteCheckpointFile(checkpoint_file_, meta, payload));
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_),
               "CHECK failed: count <= r.Remaining\\(\\) / sizeof\\(Record\\)");
}

TEST_F(CheckpointCorruptionTest, BitFlippedManifestDiesNamingFile) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const ScenarioConfig config = TinyScenario();
  MakeCheckpointDir(config);
  FlipBit(checkpoint::ManifestPath(dir_), -3);
  EXPECT_DEATH(Experiment(config).ResumeFrom(dir_), "MANIFEST.*corrupt");
}

// --- Satellite: a corrupted trace cache falls back to a fresh run. ---

TEST_F(CheckpointTest, CorruptedCacheFileIsRejectedAndRegenerated) {
  const ScenarioConfig config = TinyScenario();
  const Experiment experiment(config);
  const ExperimentResult fresh = experiment.RunCached(dir_);
  ASSERT_FALSE(fresh.from_cache);
  const ExperimentResult hit = experiment.RunCached(dir_);
  ASSERT_TRUE(hit.from_cache);

  // Find the cache file and flip one payload bit — the CRC must reject it and
  // the runner must fall back to a fresh (identical) simulation.
  std::string cache_file;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bin") {
      cache_file = entry.path().string();
    }
  }
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

// --- Satellite: AtomicFile and CRC32 primitives. ---

TEST(AtomicFileTest, CommitPublishesAbandonDoesNot) {
  const fs::path dir = fs::temp_directory_path() / "coldstart_atomic_file_test";
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
