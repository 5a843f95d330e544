// Edge-case tests for the lazy-refill resource pool: credit saturation across
// long idle gaps, SetTarget shrink behavior, release caps after a shrink, and
// exact checkpoint round-trips of the refill bookkeeping.
#include <gtest/gtest.h>

#include "common/byte_serde.h"
#include "platform/resource_pool.h"

namespace coldstart::platform {
namespace {

// A pool left idle for a very long gap must not bank unbounded refill credit:
// the provisioner's capacity bound caps the credit at one target's worth, so
// the first drain after the gap refills instantly once — not repeatedly.
TEST(ResourcePoolEdge, CreditSaturatesAcrossLongIdleGap) {
  ResourcePool pool(4, /*refill_per_min=*/2.0);
  Rng rng(1);

  // Idle for a simulated year with the pool full. Credit accrues on paper at
  // 2/min but is clamped to target (= 4).
  const SimTime year = 365 * kDay;
  EXPECT_EQ(pool.free_pods(year), 4);

  // Drain everything at the same instant; the banked credit cannot apply at
  // an equal timestamp (lazy refill only advances when time does).
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(pool.Acquire(year, rng).from_scratch);
  }
  EXPECT_EQ(pool.free_pods(year), 0);

  // One microsecond later the saturated credit lands — exactly one target's
  // worth, despite a year of nominal accrual.
  EXPECT_EQ(pool.free_pods(year + 1), 4);

  // Drain again: the bank is spent, so a second instant refill is impossible;
  // only the trickle earned since `year` (2/min) is available.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(pool.Acquire(year + 1, rng).from_scratch);
  }
  EXPECT_EQ(pool.free_pods(year + kMinute), 2);
}

// SetTarget below the current free count: excess pods are not reclaimed
// eagerly — they drain through Acquire — and the occupancy ratio they imply
// keeps the staged search local until the surplus is gone.
TEST(ResourcePoolEdge, ShrinkTargetDrainsExcessThroughAcquire) {
  ResourcePool pool(8, /*refill_per_min=*/0.0);
  Rng rng(2);
  pool.SetTarget(2);
  EXPECT_EQ(pool.target(), 2);
  EXPECT_EQ(pool.free_pods(0), 8);  // Not clipped by the shrink.

  // All 8 former pods serve requests; occupancy (free/target >= 0.5 for the
  // first 7 draws) keeps the search at stage 1 with no RNG consumed.
  for (int i = 0; i < 8; ++i) {
    const PoolAcquisition acq = pool.Acquire(0, rng);
    EXPECT_FALSE(acq.from_scratch);
    if (i < 7) {
      EXPECT_EQ(acq.stage, 1);
    }
  }
  EXPECT_EQ(pool.free_pods(0), 0);
  EXPECT_TRUE(pool.Acquire(0, rng).from_scratch);
}

// After a shrink, Release honors the *new* target's overfill cap, so the pool
// cannot quietly re-inflate to its old size through pod churn.
TEST(ResourcePoolEdge, ReleaseAfterShrinkCapsAtNewTarget) {
  ResourcePool pool(8, /*refill_per_min=*/0.0);
  Rng rng(3);
  pool.SetTarget(2);
  for (int i = 0; i < 8; ++i) {
    pool.Acquire(0, rng);
  }
  EXPECT_EQ(pool.free_pods(0), 0);
  // New cap = target + max(1, target / 4) = 3.
  for (int i = 0; i < 20; ++i) {
    pool.Release(0);
  }
  EXPECT_EQ(pool.free_pods(0), 3);
}

// Release exactly at target still recycles into the surge margin, and a pool
// at its cap ignores further releases.
TEST(ResourcePoolEdge, ReleaseAtTargetEntersSurgeMargin) {
  ResourcePool pool(4, /*refill_per_min=*/0.0);
  EXPECT_EQ(pool.free_pods(0), 4);  // At target.
  pool.Release(0);
  EXPECT_EQ(pool.free_pods(0), 5);  // target + target/4 margin.
  pool.Release(0);
  EXPECT_EQ(pool.free_pods(0), 5);  // At cap: reclaimed, not stored.
}

// Checkpoint round-trip must capture the refill bookkeeping exactly:
// fractional refill credit and the last-refill stamp, so a restored pool's
// future refills are bit-identical to the original's.
TEST(ResourcePoolEdge, CheckpointRoundTripPreservesRefillState) {
  // 2.5/min over exactly one minute gives a binary-exact 0.5 fractional credit,
  // so the round trip can be asserted with equality, not tolerance.
  ResourcePool pool(4, /*refill_per_min=*/2.5);
  Rng rng(4);
  for (int i = 0; i < 4; ++i) {
    pool.Acquire(0, rng);
  }
  EXPECT_EQ(pool.free_pods(kMinute), 2);  // 2.5 credit: 2 pods, 0.5 banked.
  pool.SetTarget(6);  // Mutated target must survive the round trip too.

  // The layout's fields: free, target, refill credit, last refill, scratch.
  const std::string state = SaveLayout(pool);
  ByteReader fields(state);
  EXPECT_EQ(fields.I64(), 2);
  EXPECT_EQ(fields.I64(), 6);
  EXPECT_EQ(fields.F64(), 0.5);
  EXPECT_EQ(fields.I64(), kMinute);

  // Restore into a freshly constructed pool (construction parameters come from
  // the profile, mutable state from the checkpoint) and advance both in
  // lockstep: identical observable behavior at every step.
  ResourcePool restored(4, /*refill_per_min=*/2.5);
  RestoreLayout(state, restored);
  const SimTime later = 2 * kMinute;  // +2.5 credit -> 3.0 total.
  EXPECT_EQ(pool.free_pods(later), restored.free_pods(later));
  EXPECT_EQ(pool.free_pods(later), 5);
  // Refill credit and last refill (and every other field) agree byte for byte.
  EXPECT_EQ(SaveLayout(pool), SaveLayout(restored));
  EXPECT_EQ(pool.scratch_count(), restored.scratch_count());
}

}  // namespace
}  // namespace coldstart::platform
