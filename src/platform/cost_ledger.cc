#include "platform/cost_ledger.h"

#include "common/check.h"

namespace coldstart::platform {

namespace {

// 2^20 fixed point, the LogHistogram sum idiom: quantize once per sample, sum in
// 128-bit integers so accumulation order cannot perturb the result.
constexpr double kFixedScale = 1048576.0;

__int128 ToFixed(double value) { return static_cast<__int128>(value * kFixedScale); }

}  // namespace

void ResourceCostLedger::AddPodDeath(trace::RegionId region, int64_t lifetime_us,
                                     int64_t warm_idle_us, double snapshot_mb) {
  COLDSTART_CHECK(region < slots_.size());
  COLDSTART_CHECK(lifetime_us >= 0);
  COLDSTART_CHECK(warm_idle_us >= 0);
  trace::RegionCostRecord& slot = slots_[region];
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
    slots_[i].Add(other.slots_[i]);
  }
}

trace::RegionCostRecord ResourceCostLedger::region_record(trace::RegionId region) const {
  COLDSTART_CHECK(region < slots_.size());
  trace::RegionCostRecord out = slots_[region];
  out.region = region;
  return out;
}

trace::RegionCostRecord ResourceCostLedger::TotalRecord() const {
  trace::RegionCostRecord out;
  for (const trace::RegionCostRecord& slot : slots_) {
    out.Add(slot);
  }
  return out;
}

template <class Ar, class Self>
void ResourceCostLedger::Layout(Ar& a, Self& self) {
  // Each slot is three 128-bit sums and a count.
  a.Count(self.slots_, 3 * 16 + 8);
  for (auto& slot : self.slots_) {
    trace::RegionCostRecord::Layout(a, slot);
  }
}

void ResourceCostLedger::SaveState(ByteWriter& w) const { Layout(w, *this); }

void ResourceCostLedger::RestoreState(ByteReader& r) { Layout(r, *this); }

}  // namespace coldstart::platform
