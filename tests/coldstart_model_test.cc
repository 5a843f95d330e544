// Cold-start model: provider presets, the snapshot-restore term, fingerprint
// coverage, checkpoint resume, and the model-matrix determinism pin — for every
// preset, serial == region-sharded == sub-region K=4, down to streaming-aggregate
// bytes and cost-ledger bits, each pinned to a recorded hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/byte_serde.h"
#include "core/coldstart_lab.h"
#include "whole_run_plan.h"

namespace coldstart {
namespace {

namespace fs = std::filesystem;

using core::Experiment;
using core::ExperimentResult;
using core::ScenarioConfig;
using platform::ColdStartComponents;
using platform::ColdStartModel;
using platform::RegionLoadState;
using platform::ResourcePool;
using workload::ColdStartModelKind;

// --- Direct model behavior. ------------------------------------------------

double MeanTotalSeconds(const ColdStartModel& model, int draws) {
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

ColdStartModel ModelOf(ColdStartModelKind kind) {
  workload::RegionProfile profile = workload::DefaultRegionProfiles()[0];
  profile.model.kind = kind;
  return ColdStartModel(profile, workload::Calendar{});
}

TEST(ProviderModels, PresetColdStartsFollowPublishedOrdering) {
  const double aws_mean = MeanTotalSeconds(ModelOf(ColdStartModelKind::kAwsLike), 300);
  const double gcp_mean = MeanTotalSeconds(ModelOf(ColdStartModelKind::kGcpLike), 300);
  const double azure_mean =
      MeanTotalSeconds(ModelOf(ColdStartModelKind::kAzureLike), 300);
  // Published cold-start benchmarks order the providers AWS < GCP < Azure for
  // pool-backed runtimes; the presets must preserve that ordering with margin.
  EXPECT_LT(aws_mean * 2, gcp_mean);
  EXPECT_LT(gcp_mean, azure_mean);
  EXPECT_LT(aws_mean, 1.0);   // Sub-second typical AWS cold start.
  EXPECT_GT(azure_mean, 2.0);  // Multi-second Azure cold start.
}

TEST(SnapshotRestore, CollapsesInitComponentsIntoRestoreTerm) {
  workload::RegionProfile profile = workload::DefaultRegionProfiles()[0];
  profile.model.snapshot_restore = true;
  profile.model.restore_base_s = 0.1;
  profile.model.restore_bandwidth_mb_per_s = 1000;
  profile.model.restore_sigma = 0.0;  // Deterministic restore for exact assertions.
  profile.model.snapshot_memory_mb = 400;
  const ColdStartModel model(profile, workload::Calendar{});
  EXPECT_DOUBLE_EQ(model.snapshot_memory_mb(), 400.0);

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
}

// The components of `draws` cold starts from a fixed seed and pool.
std::vector<ColdStartComponents> Draws(const ColdStartModel& model, int draws) {
  ResourcePool pool(100, 10.0);
  RegionLoadState load;
  workload::FunctionSpec spec;
  spec.code_size_kb = 2048;
  spec.dep_size_kb = 4096;
  Rng rng(23);
  std::vector<ColdStartComponents> out;
  for (int i = 0; i < draws; ++i) {
    out.push_back(model.Compute(spec, pool, load, kHour, rng));
    pool.Release(kHour);
  }
  return out;
}

bool SameDraws(const std::vector<ColdStartComponents>& a,
               const std::vector<ColdStartComponents>& b) {
  const auto fields = [](const ColdStartComponents& c) {
    return std::tie(c.pod_alloc, c.deploy_code, c.deploy_dep, c.scheduling,
                    c.pool_stage, c.from_scratch);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const ColdStartComponents& x, const ColdStartComponents& y) {
                      return fields(x) == fields(y);
                    });
}

TEST(ProviderModels, FactoryHonorsProfileModelConfig) {
  const workload::Calendar calendar;
  const workload::RegionProfile yuanrong = workload::DefaultRegionProfiles()[0];
  const auto own = Draws(ColdStartModel(yuanrong, calendar), 40);
  EXPECT_EQ(ColdStartModel(yuanrong, calendar).snapshot_memory_mb(), 0.0);

  // kGcpLike prices with the GCP architecture, exactly as kYuanRong would with
  // that architecture swapped into the region profile.
  workload::RegionProfile gcp = yuanrong;
  gcp.model.kind = ColdStartModelKind::kGcpLike;
  workload::RegionProfile swapped = yuanrong;
  swapped.arch = platform::GcpLikeArchitecture();
  const auto gcp_draws = Draws(ColdStartModel(gcp, calendar), 40);
  EXPECT_TRUE(SameDraws(gcp_draws, Draws(ColdStartModel(swapped, calendar), 40)));
  EXPECT_FALSE(SameDraws(gcp_draws, own));

  // Snapshot restore on top keeps the preset's allocation and scheduling (the
  // restore noise is drawn last, so the first cold start's engine draws match)
  // and replaces both deploy terms.
  gcp.model.snapshot_restore = true;
  const ColdStartModel snapshot(gcp, calendar);
  EXPECT_GT(snapshot.snapshot_memory_mb(), 0);
  const auto snapshot_draws = Draws(snapshot, 40);
  EXPECT_EQ(snapshot_draws[0].pod_alloc, gcp_draws[0].pod_alloc);
  EXPECT_EQ(snapshot_draws[0].scheduling, gcp_draws[0].scheduling);
  EXPECT_NE(snapshot_draws[0].deploy_code, gcp_draws[0].deploy_code);
  EXPECT_EQ(snapshot_draws[0].deploy_dep, 0);
  EXPECT_GT(gcp_draws[0].deploy_dep, 0);
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

// HashString of a run's StreamingBytes and LedgerBytes.
struct OutputPin {
  uint64_t streaming;
  uint64_t ledger;
};

TEST(ModelMatrix, EveryPresetBitIdenticalAcrossGeometries) {
  // pins[0] is cells 1, pins[1] cells 4. The golden digest covers only the
  // default model, and serial == sharded cannot see a draw-order slip both
  // geometries share, so every preset's output is pinned as well.
  const struct {
    ColdStartModelKind kind;
    bool snapshot;
    const char* label;
    OutputPin pins[2];
  } kMatrix[] = {
      {ColdStartModelKind::kYuanRong, false, "yuanrong",
       {{0x007fe48e5aef66f8ULL, 0x5849c707178546a9ULL},
        {0xf0cd82a534b4326aULL, 0x6831df972c637a7bULL}}},
      {ColdStartModelKind::kAwsLike, false, "aws-like",
       {{0xfccfcb915b7236a3ULL, 0x86f4b622a09230a4ULL},
        {0xcb115af518ed63e1ULL, 0x5e6e70dcecd1a17fULL}}},
      {ColdStartModelKind::kGcpLike, false, "gcp-like",
       {{0x6d7bfc4bad8ec242ULL, 0x26f25ec3048ec499ULL},
        {0x5ec7af3fa3bb65d5ULL, 0xd7c62fd2b0f38c30ULL}}},
      {ColdStartModelKind::kAzureLike, false, "azure-like",
       {{0x4ac824fc9ff7740fULL, 0xc942e5b12df6a376ULL},
        {0xd97d317741ed6fa0ULL, 0xcd24d4173b7a5a09ULL}}},
      {ColdStartModelKind::kYuanRong, true, "snapshot(yuanrong)",
       {{0x7321ad19fc83e4adULL, 0x04518d54f28113f8ULL},
        {0xe90460cd07068ebfULL, 0x1eed932f753fa3d4ULL}}},
  };
  // A sharded run takes K = cells: cells 1 shards by region (K=1), cells 4
  // into (region, cell group) slices (K=4). Each is compared with its own
  // serial run.
  // On a mismatch the test prints every entry's pin lines as measured, ready
  // to replace the two pin lines under each label in kMatrix.
  bool moved = false;
  std::string repin;
  for (const auto& entry : kMatrix) {
    repin += std::string("      // ") + entry.label + "\n";
    for (const uint32_t cells : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << entry.label << ", cells " << cells);
      const OutputPin& pin = entry.pins[cells == 1 ? 0 : 1];
      const Experiment experiment(MatrixScenario(entry.kind, entry.snapshot, cells));
      const ExperimentResult serial = testing_support::RunWholePlan(experiment);
      const ExperimentResult sharded = experiment.Run(nullptr, 4);
      ASSERT_GT(sharded.shards, 1u);

      EXPECT_EQ(serial.visible_cold_starts, sharded.visible_cold_starts);
      EXPECT_EQ(serial.cold_start_latency_sum_us, sharded.cold_start_latency_sum_us);
      EXPECT_EQ(serial.scratch_allocations, sharded.scratch_allocations);

      // Byte-level: full streaming aggregate state (counters, histograms, cost
      // rows) and the experiment's cost ledger, at every geometry.
      EXPECT_EQ(StreamingBytes(serial), StreamingBytes(sharded));
      EXPECT_EQ(LedgerBytes(serial), LedgerBytes(sharded));
      const OutputPin got{HashString(StreamingBytes(serial)),
                          HashString(LedgerBytes(serial))};
      EXPECT_EQ(got.streaming, pin.streaming);
      EXPECT_EQ(got.ledger, pin.ledger);
      moved = moved || got.streaming != pin.streaming || got.ledger != pin.ledger;
      char line[96];
      std::snprintf(line, sizeof(line),
                    "%s{0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}%s\n",
                    cells == 1 ? "       {" : "        ", got.streaming, got.ledger,
                    cells == 1 ? "," : "}},");
      repin += line;

      // The ledger is live: pods ran, so pod-seconds accrued everywhere.
      EXPECT_GT(serial.cost_ledger.TotalRecord().pod_seconds(), 0.0);
      if (entry.snapshot) {
        EXPECT_GT(serial.cost_ledger.TotalRecord().snapshot_mb_seconds(), 0.0);
      } else {
        EXPECT_EQ(serial.cost_ledger.TotalRecord().snapshot_mb_seconds(), 0.0);
      }
    }
  }
  if (moved) {
    ADD_FAILURE() << "ModelMatrix pins moved; measured pins per entry:\n" << repin;
  }
}

// --- Checkpoint integration: model identity + state ride the cckpt frame. --

TEST(ModelCheckpoint, SnapshotModelRunResumesBitIdentical) {
  // A run under a non-default model must checkpoint and resume without
  // perturbing the run. The model is rebuilt from the scenario on resume; the
  // fingerprint check guarantees it is the same model.
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
