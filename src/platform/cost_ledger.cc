#include "platform/cost_ledger.h"

#include "common/check.h"

namespace coldstart::platform {

namespace {

// 2^20 fixed point, the LogHistogram sum idiom: quantize once per sample, sum in
// 128-bit integers so accumulation order cannot perturb the result.
constexpr double kFixedScale = 1048576.0;

__int128 ToFixed(double value) { return static_cast<__int128>(value * kFixedScale); }

void WriteI128(ByteWriter& w, __int128 v) {
  w.U64(static_cast<uint64_t>(static_cast<unsigned __int128>(v)));
  w.U64(static_cast<uint64_t>(static_cast<unsigned __int128>(v) >> 64));
}

__int128 ReadI128(ByteReader& r) {
  const uint64_t lo = r.U64();
  const uint64_t hi = r.U64();
  return static_cast<__int128>((static_cast<unsigned __int128>(hi) << 64) |
                               static_cast<unsigned __int128>(lo));
}

}  // namespace

void ResourceCostLedger::AddPodDeath(trace::RegionId region, int64_t lifetime_us,
                                     int64_t warm_idle_us, double snapshot_mb) {
  COLDSTART_CHECK(region < slots_.size());
  COLDSTART_CHECK(lifetime_us >= 0);
  COLDSTART_CHECK(warm_idle_us >= 0);
  Slot& slot = slots_[region];
  slot.pod_us += lifetime_us;
  slot.warm_idle_us += warm_idle_us;
  if (snapshot_mb > 0) {
    // MB × µs quantized per pod: the per-pod value is a pure function of the pod,
    // so every geometry quantizes identically before the commutative sum.
    slot.snapshot_mb_us_fp += ToFixed(snapshot_mb * static_cast<double>(lifetime_us));
  }
}

void ResourceCostLedger::AddScratchCreation(trace::RegionId region) {
  COLDSTART_CHECK(region < slots_.size());
  ++slots_[region].scratch_creations;
}

void ResourceCostLedger::MergeFrom(const ResourceCostLedger& other) {
  if (slots_.size() < other.slots_.size()) {
    slots_.resize(other.slots_.size());
  }
  for (size_t i = 0; i < other.slots_.size(); ++i) {
    slots_[i].pod_us += other.slots_[i].pod_us;
    slots_[i].warm_idle_us += other.slots_[i].warm_idle_us;
    slots_[i].snapshot_mb_us_fp += other.slots_[i].snapshot_mb_us_fp;
    slots_[i].scratch_creations += other.slots_[i].scratch_creations;
  }
}

trace::RegionCostRecord ResourceCostLedger::region_record(trace::RegionId region) const {
  COLDSTART_CHECK(region < slots_.size());
  const Slot& slot = slots_[region];
  trace::RegionCostRecord out;
  out.region = region;
  out.pod_us = slot.pod_us;
  out.warm_idle_us = slot.warm_idle_us;
  out.snapshot_mb_us_fp = slot.snapshot_mb_us_fp;
  out.scratch_creations = slot.scratch_creations;
  return out;
}

trace::RegionCostRecord ResourceCostLedger::TotalRecord() const {
  trace::RegionCostRecord out;
  for (const Slot& slot : slots_) {
    out.pod_us += slot.pod_us;
    out.warm_idle_us += slot.warm_idle_us;
    out.snapshot_mb_us_fp += slot.snapshot_mb_us_fp;
    out.scratch_creations += slot.scratch_creations;
  }
  return out;
}

void ResourceCostLedger::SaveState(ByteWriter& w) const {
  w.U64(slots_.size());
  for (const Slot& slot : slots_) {
    WriteI128(w, slot.pod_us);
    WriteI128(w, slot.warm_idle_us);
    WriteI128(w, slot.snapshot_mb_us_fp);
    w.I64(slot.scratch_creations);
  }
}

void ResourceCostLedger::RestoreState(ByteReader& r) {
  // Each slot is three 128-bit sums and a count: a CRC-valid count too large
  // for the payload dies on this CHECK, not in the allocator.
  constexpr size_t kSlotBytes = 3 * 16 + 8;
  const uint64_t n = r.U64();
  COLDSTART_CHECK(n <= r.Remaining() / kSlotBytes);
  slots_.assign(n, Slot{});
  for (Slot& slot : slots_) {
    slot.pod_us = ReadI128(r);
    slot.warm_idle_us = ReadI128(r);
    slot.snapshot_mb_us_fp = ReadI128(r);
    slot.scratch_creations = r.I64();
  }
}

}  // namespace coldstart::platform
