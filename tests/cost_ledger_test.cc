// ResourceCostLedger: order-invariant accumulation (the serial == sharded
// contract for cost sums), merge semantics, and serde round-trips.
#include <gtest/gtest.h>

#include <vector>

#include "common/byte_serde.h"
#include "platform/cost_ledger.h"

namespace coldstart::platform {
namespace {

TEST(CostLedger, AccumulatesPerRegion) {
  ResourceCostLedger ledger(2);
  ledger.AddPodDeath(0, /*lifetime_us=*/1'000'000, /*warm_idle_us=*/250'000,
                     /*snapshot_mb=*/0.0);
  ledger.AddPodDeath(0, 3'000'000, 0, 0.0);
  ledger.AddPodDeath(1, 2'000'000, 2'000'000, 128.0);
  ledger.AddScratchCreation(1);
  ledger.AddScratchCreation(1);

  const trace::RegionCostRecord r0 = ledger.region_record(0);
  EXPECT_DOUBLE_EQ(r0.pod_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(r0.warm_idle_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(r0.snapshot_mb_seconds(), 0.0);
  EXPECT_EQ(r0.scratch_creations, 0);

  const trace::RegionCostRecord r1 = ledger.region_record(1);
  EXPECT_DOUBLE_EQ(r1.pod_seconds(), 2.0);
  EXPECT_EQ(r1.scratch_creations, 2);
  // 128 MB held for 2 s, quantized once at 2^20 fixed point.
  EXPECT_NEAR(r1.snapshot_mb_seconds(), 256.0, 1e-6);

  const trace::RegionCostRecord total = ledger.TotalRecord();
  EXPECT_DOUBLE_EQ(total.pod_seconds(), 6.0);
  EXPECT_EQ(total.scratch_creations, 2);
}

// The determinism contract: any partition of the same pod deaths across
// ledgers, merged in any order, lands on bit-identical sums — integer adds
// of per-pod quantized values are associative and commutative.
TEST(CostLedger, MergeIsOrderInvariant) {
  struct Death {
    trace::RegionId region;
    int64_t lifetime_us;
    int64_t idle_us;
    double mb;
  };
  std::vector<Death> deaths;
  for (int i = 0; i < 100; ++i) {
    deaths.push_back({static_cast<trace::RegionId>(i % 3),
                      1'000'000 + 37'123 * i, 10'000 + 977 * i,
                      (i % 2) == 0 ? 0.0 : 64.0 + 0.37 * i});
  }

  ResourceCostLedger serial(3);
  for (const Death& d : deaths) {
    serial.AddPodDeath(d.region, d.lifetime_us, d.idle_us, d.mb);
  }

  // Partition round-robin into 4 "shards", then fold in reverse shard order.
  std::vector<ResourceCostLedger> shards(4, ResourceCostLedger(3));
  for (size_t i = 0; i < deaths.size(); ++i) {
    const Death& d = deaths[i];
    shards[i % 4].AddPodDeath(d.region, d.lifetime_us, d.idle_us, d.mb);
  }
  ResourceCostLedger merged(3);
  for (int s = 3; s >= 0; --s) {
    merged.MergeFrom(shards[static_cast<size_t>(s)]);
  }

  for (trace::RegionId r = 0; r < 3; ++r) {
    const trace::RegionCostRecord a = serial.region_record(r);
    const trace::RegionCostRecord b = merged.region_record(r);
    EXPECT_TRUE(a.pod_us == b.pod_us);
    EXPECT_TRUE(a.warm_idle_us == b.warm_idle_us);
    EXPECT_TRUE(a.snapshot_mb_us_fp == b.snapshot_mb_us_fp);  // Bit-identical.
    EXPECT_EQ(a.scratch_creations, b.scratch_creations);
  }
}

TEST(CostLedger, MergeResizesToCoverLargerLedger) {
  ResourceCostLedger small(1);
  small.AddPodDeath(0, 1'000'000, 0, 0.0);
  ResourceCostLedger big(3);
  big.AddPodDeath(2, 2'000'000, 0, 0.0);
  small.MergeFrom(big);
  EXPECT_EQ(small.num_regions(), 3u);
  EXPECT_DOUBLE_EQ(small.region_record(0).pod_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(small.region_record(2).pod_seconds(), 2.0);
}

// Serde round-trip, including 128-bit sums large enough to spill past one
// 64-bit word (a month of million-pod lifetimes does this for MB·µs fixed
// point, so the hi word is load-bearing).
TEST(CostLedger, SerdeRoundTripPreserves128BitSums) {
  ResourceCostLedger ledger(2);
  // ~9.4e14 µs of lifetime at 10 GB per pod: snapshot_mb_us_fp exceeds 2^64.
  for (int i = 0; i < 10; ++i) {
    ledger.AddPodDeath(1, 94'000'000'000'000, 1'000'000, 10'240.0);
  }
  ledger.AddScratchCreation(0);

  ByteWriter w;
  ledger.SaveState(w);
  ResourceCostLedger restored;
  ByteReader r(w.data());
  restored.RestoreState(r);
  EXPECT_TRUE(r.AtEnd());

  ASSERT_EQ(restored.num_regions(), 2u);
  for (trace::RegionId region = 0; region < 2; ++region) {
    const trace::RegionCostRecord a = ledger.region_record(region);
    const trace::RegionCostRecord b = restored.region_record(region);
    EXPECT_TRUE(a.pod_us == b.pod_us);
    EXPECT_TRUE(a.warm_idle_us == b.warm_idle_us);
    EXPECT_TRUE(a.snapshot_mb_us_fp == b.snapshot_mb_us_fp);
    EXPECT_EQ(a.scratch_creations, b.scratch_creations);
  }
  // Sanity: the test actually exercised the hi word.
  const trace::RegionCostRecord r1 = ledger.region_record(1);
  EXPECT_TRUE(r1.snapshot_mb_us_fp > static_cast<__int128>(UINT64_MAX));
}

TEST(CostLedgerDeathTest, HugeSlotCountDiesOnBoundsCheck) {
  // A stored slot count too large for the bytes left dies on the reader's
  // bounds CHECK, not in the allocator.
  ByteWriter w;
  w.U64(uint64_t{1} << 40);
  ByteReader r(w.data());
  ResourceCostLedger ledger;
  EXPECT_DEATH(ledger.RestoreState(r),
               "CHECK failed: n <= Remaining\\(\\) / min_bytes_per_element");
}

}  // namespace
}  // namespace coldstart::platform
