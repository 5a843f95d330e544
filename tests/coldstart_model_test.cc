// Cold-start model layer: provider presets, the snapshot-restore decorator,
// model-state checkpointing, fingerprint coverage, and the model-matrix
// determinism pin — for every preset, serial == region-sharded == sub-region
// K=4, down to streaming-aggregate bytes and cost-ledger bits.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>

#include "common/byte_serde.h"
#include "core/coldstart_lab.h"

namespace coldstart {
namespace {

namespace fs = std::filesystem;

using core::Experiment;
using core::ExperimentResult;
using core::ScenarioConfig;
using platform::ColdStartComponents;
using platform::ColdStartModel;
using platform::MakeColdStartModel;
using platform::RegionLoadState;
using platform::ResourcePool;
using platform::SnapshotRestoreModel;
using platform::YuanRongModel;
using workload::ColdStartModelKind;

// --- Direct model behavior. ------------------------------------------------

double MeanTotalSeconds(ColdStartModel& model, int draws) {
  ResourcePool pool(100, 10.0);
  RegionLoadState load;
  workload::FunctionSpec spec;
  spec.code_size_kb = 2048;
  spec.dep_size_kb = 4096;
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < draws; ++i) {
    sum += ToSeconds(model.Compute(spec, pool, load, kHour, rng).total());
    pool.Release(kHour);
  }
  return sum / draws;
}

TEST(ProviderModels, PresetColdStartsFollowPublishedOrdering) {
  const workload::RegionProfile profile = workload::DefaultRegionProfiles()[0];
  const workload::Calendar calendar;
  auto aws = platform::MakeAwsLikeModel(profile, calendar);
  auto gcp = platform::MakeGcpLikeModel(profile, calendar);
  auto azure = platform::MakeAzureLikeModel(profile, calendar);
  EXPECT_EQ(aws->name(), "aws-like");
  EXPECT_EQ(gcp->name(), "gcp-like");
  EXPECT_EQ(azure->name(), "azure-like");

  const double aws_mean = MeanTotalSeconds(*aws, 300);
  const double gcp_mean = MeanTotalSeconds(*gcp, 300);
  const double azure_mean = MeanTotalSeconds(*azure, 300);
  // Published cold-start benchmarks order the providers AWS < GCP < Azure for
  // pool-backed runtimes; the presets must preserve that ordering with margin.
  EXPECT_LT(aws_mean * 2, gcp_mean);
  EXPECT_LT(gcp_mean, azure_mean);
  EXPECT_LT(aws_mean, 1.0);   // Sub-second typical AWS cold start.
  EXPECT_GT(azure_mean, 2.0);  // Multi-second Azure cold start.
}

TEST(SnapshotRestore, CollapsesInitComponentsIntoRestoreTerm) {
  const workload::RegionProfile profile = workload::DefaultRegionProfiles()[0];
  const workload::Calendar calendar;
  SnapshotRestoreModel::Options opts;
  opts.restore_base_s = 0.1;
  opts.restore_bandwidth_mb_per_s = 1000;
  opts.restore_sigma = 0.0;  // Deterministic restore for exact assertions.
  opts.snapshot_memory_mb = 400;
  SnapshotRestoreModel model(
      std::make_unique<YuanRongModel>(profile, calendar), opts);
  EXPECT_EQ(model.name(), "snapshot(yuanrong)");
  EXPECT_DOUBLE_EQ(model.snapshot_memory_mb_per_pod(), 400.0);

  ResourcePool pool(100, 10.0);
  RegionLoadState load;
  workload::FunctionSpec spec;
  spec.dep_size_kb = 8192;  // Would cost a dep deploy without the snapshot.
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const ColdStartComponents c = model.Compute(spec, pool, load, 0, rng);
    EXPECT_EQ(c.deploy_dep, 0);  // Snapshot already holds initialized layers.
    // restore = base + mb / bandwidth = 0.1 + 0.4 = 0.5 s, sigma 0.
    EXPECT_EQ(c.deploy_code, FromSeconds(0.5));
    EXPECT_GT(c.pod_alloc, 0);   // Alloc/scheduling stay the provider's own.
    EXPECT_GT(c.scheduling, 0);
    pool.Release(0);
  }
  EXPECT_EQ(model.restores(), 50);
}

TEST(SnapshotRestore, ModelStateSurvivesSerdeAndCloneStartsFresh) {
  const workload::RegionProfile profile = workload::DefaultRegionProfiles()[0];
  const workload::Calendar calendar;
  SnapshotRestoreModel model(
      std::make_unique<YuanRongModel>(profile, calendar), {});
  ResourcePool pool(10, 1.0);
  RegionLoadState load;
  workload::FunctionSpec spec;
  Rng rng(5);
  for (int i = 0; i < 7; ++i) {
    model.Compute(spec, pool, load, 0, rng);
    pool.Release(0);
  }
  EXPECT_EQ(model.restores(), 7);

  // Clone copies configuration, not accumulated state: each (region, cell)
  // instance counts its own restores.
  auto clone = model.Clone();
  EXPECT_EQ(static_cast<SnapshotRestoreModel&>(*clone).restores(), 0);
  EXPECT_EQ(clone->name(), model.name());

  // Serde round-trip restores the counter exactly.
  ByteWriter w;
  model.SaveModelState(w);
  ByteReader r(w.data());
  clone->RestoreModelState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(static_cast<SnapshotRestoreModel&>(*clone).restores(), 7);
}

TEST(ProviderModels, FactoryHonorsProfileModelConfig) {
  const workload::Calendar calendar;
  workload::RegionProfile profile = workload::DefaultRegionProfiles()[0];
  EXPECT_EQ(MakeColdStartModel(profile, calendar)->name(), "yuanrong");
  profile.model.kind = ColdStartModelKind::kGcpLike;
  EXPECT_EQ(MakeColdStartModel(profile, calendar)->name(), "gcp-like");
  profile.model.snapshot_restore = true;
  EXPECT_EQ(MakeColdStartModel(profile, calendar)->name(), "snapshot(gcp-like)");
  EXPECT_GT(MakeColdStartModel(profile, calendar)->snapshot_memory_mb_per_pod(), 0);
}

// --- Fingerprint coverage (cache/checkpoint invalidation). -----------------

TEST(ProviderModels, ModelSelectionEntersScenarioFingerprint) {
  const ScenarioConfig base = core::SmallScenario();
  const uint64_t base_fp = base.Fingerprint();

  ScenarioConfig kind = base;
  kind.profiles[0].model.kind = ColdStartModelKind::kAwsLike;
  EXPECT_NE(kind.Fingerprint(), base_fp);

  ScenarioConfig snapshot = base;
  snapshot.profiles[0].model.snapshot_restore = true;
  EXPECT_NE(snapshot.Fingerprint(), base_fp);
  EXPECT_NE(snapshot.Fingerprint(), kind.Fingerprint());

  ScenarioConfig tuned = snapshot;
  tuned.profiles[0].model.snapshot_memory_mb = 999.0;
  EXPECT_NE(tuned.Fingerprint(), snapshot.Fingerprint());
}

// --- Model matrix: every preset is bit-identical across geometries. --------

ScenarioConfig MatrixScenario(ColdStartModelKind kind, bool snapshot, uint32_t cells) {
  ScenarioConfig config = core::SmallScenario();
  config.days = 2;
  config.scale = 0.2;
  config.record_requests = false;
  config.cells_per_region = cells;
  config.trace_mode = core::TraceMode::kStreaming;
  for (auto& profile : config.profiles) {
    profile.model.kind = kind;
    profile.model.snapshot_restore = snapshot;
  }
  return config;
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

TEST(ModelMatrix, EveryPresetBitIdenticalAcrossGeometries) {
  const struct {
    ColdStartModelKind kind;
    bool snapshot;
    const char* label;
  } kMatrix[] = {
      {ColdStartModelKind::kYuanRong, false, "yuanrong"},
      {ColdStartModelKind::kAwsLike, false, "aws-like"},
      {ColdStartModelKind::kGcpLike, false, "gcp-like"},
      {ColdStartModelKind::kAzureLike, false, "azure-like"},
      {ColdStartModelKind::kYuanRong, true, "snapshot(yuanrong)"},
  };
  // A sharded run takes K = cells: cells 1 shards by region (K=1), cells 4
  // into (region, cell group) slices (K=4). Each is compared with its own
  // serial run.
  for (const auto& entry : kMatrix) {
    for (const uint32_t cells : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << entry.label << ", cells " << cells);
      const Experiment experiment(MatrixScenario(entry.kind, entry.snapshot, cells));
      ASSERT_TRUE(experiment.CanShard(nullptr));
      const ExperimentResult serial = experiment.Run(nullptr, 1);
      const ExperimentResult sharded = experiment.Run(nullptr, 4);

      EXPECT_EQ(serial.visible_cold_starts, sharded.visible_cold_starts);
      EXPECT_EQ(serial.cold_start_latency_sum_us, sharded.cold_start_latency_sum_us);
      EXPECT_EQ(serial.scratch_allocations, sharded.scratch_allocations);

      // Byte-level: full streaming aggregate state (counters, histograms, cost
      // rows) and the experiment's cost ledger, at every geometry.
      EXPECT_EQ(StreamingBytes(serial), StreamingBytes(sharded));
      EXPECT_EQ(LedgerBytes(serial), LedgerBytes(sharded));

      // The ledger is live: pods ran, so pod-seconds accrued everywhere.
      EXPECT_GT(serial.cost_ledger.TotalRecord().pod_seconds(), 0.0);
      if (entry.snapshot) {
        EXPECT_GT(serial.cost_ledger.TotalRecord().snapshot_mb_seconds(), 0.0);
      } else {
        EXPECT_EQ(serial.cost_ledger.TotalRecord().snapshot_mb_seconds(), 0.0);
      }
    }
  }
}

// --- Checkpoint integration: model identity + state ride the cckpt frame. --

TEST(ModelCheckpoint, SnapshotModelRunResumesBitIdentical) {
  // A stateful model (snapshot-restore counts restores) must checkpoint and
  // resume without perturbing the run — and the checkpoint frame pins model
  // identity, so a resumed run re-attaches the same model per (region, cell).
  ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  config.scale = 0.05;
  for (auto& profile : config.profiles) {
    profile.model.kind = ColdStartModelKind::kAwsLike;
    profile.model.snapshot_restore = true;
  }
  const Experiment experiment(config);
  const ExperimentResult uninterrupted = experiment.Run(nullptr, 1);

  const std::string dir =
      (fs::temp_directory_path() / "coldstart_model_ckpt_test").string();
  fs::remove_all(dir);
  std::atomic<bool> stop{false};
  core::CheckpointPolicy ckpt;
  ckpt.dir = dir;
  ckpt.stop = &stop;
  ckpt.on_checkpoint = [&stop](int64_t day, uint32_t) {
    if (day >= 1) {
      stop.store(true);
    }
  };
  const ExperimentResult interrupted = experiment.Run(nullptr, 1, &ckpt);
  ASSERT_GT(interrupted.interrupted_at_day, 0);

  const ExperimentResult resumed = experiment.ResumeFrom(dir, nullptr, 1);
  fs::remove_all(dir);
  EXPECT_EQ(resumed.interrupted_at_day, -1);
  ASSERT_GT(uninterrupted.store.cold_starts().size(), 100u);
  EXPECT_EQ(trace::Digest(uninterrupted.store), trace::Digest(resumed.store));
  EXPECT_EQ(uninterrupted.visible_cold_starts, resumed.visible_cold_starts);
  ByteWriter a, b;
  uninterrupted.cost_ledger.SaveState(a);
  resumed.cost_ledger.SaveState(b);
  EXPECT_EQ(a.data(), b.data());
}

}  // namespace
}  // namespace coldstart
