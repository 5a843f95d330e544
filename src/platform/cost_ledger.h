// The resource-cost ledger: what the platform *pays* to serve the workload.
//
// Cold-start mitigations trade latency for resources (SPES frames prewarming as
// exactly this trade-off; snapshot restore pays resident memory). The ledger
// gives every run the resource side of that ledger line: pod-seconds in
// existence, warm-idle-seconds (capacity held but serving nothing), from-scratch
// creation counts, and snapshot-memory MB·s.
//
// Determinism contract: every accumulator is an order-invariant integer sum —
// exact microsecond counts (pod lifetimes and idle intervals are integer µs
// already) plus one 2^-20 fixed-point sum for the fractional MB·s product,
// mirroring the LogHistogram sum_fp_ idiom. Integer addition commutes, so a
// serial run, a region-sharded run, and a K=4 sub-region-sharded run produce
// bit-identical ledgers regardless of accumulation order.
#ifndef COLDSTART_PLATFORM_COST_LEDGER_H_
#define COLDSTART_PLATFORM_COST_LEDGER_H_

#include <cstdint>
#include <vector>

#include "common/byte_serde.h"
#include "trace/records.h"

namespace coldstart::platform {

class ResourceCostLedger {
 public:
  ResourceCostLedger() = default;
  explicit ResourceCostLedger(size_t num_regions) : slots_(num_regions) {}

  size_t num_regions() const { return slots_.size(); }

  // Accounts one pod at death: lifetime (cold-start begin → death), the warm-idle
  // share of it, and the model's per-pod snapshot surcharge. The MB·s product is
  // quantized per pod (deterministically) before summing.
  void AddPodDeath(trace::RegionId region, int64_t lifetime_us, int64_t warm_idle_us,
                   double snapshot_mb);

  // Accounts one from-scratch pod creation (pool exhausted or custom image).
  void AddScratchCreation(trace::RegionId region);

  // Shard merge: plain integer addition per region, commutative and exact.
  void MergeFrom(const ResourceCostLedger& other);

  trace::RegionCostRecord region_record(trace::RegionId region) const;
  trace::RegionCostRecord TotalRecord() const;

  // Checkpoint serde: a slot count, then each slot's RegionCostRecord::Layout.
  void SaveState(ByteWriter& w) const;
  void RestoreState(ByteReader& r);

 private:
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

  // One per region; a slot's `region` field is unused (its index says it).
  std::vector<trace::RegionCostRecord> slots_;
};

}  // namespace coldstart::platform

#endif  // COLDSTART_PLATFORM_COST_LEDGER_H_
