#include "policy/provisioned.h"

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

namespace {
// Floor pods outlive the next top-up tick.
constexpr SimDuration kFloorPodKeepAlive = 2 * kMinute;
}  // namespace

void ProvisionedConcurrencyPolicy::OnArrival(const workload::FunctionSpec& spec,
                                             SimTime) {
  COLDSTART_CHECK(platform_ != nullptr);
  if (provisioned_.count(spec.id) == 0) {
    return;
  }
  if (platform_->HasAvailablePod(spec.id)) {
    ++floor_hits_;
  } else {
    ++floor_misses_;
  }
}

void ProvisionedConcurrencyPolicy::OnColdStart(const workload::FunctionSpec& spec,
                                               SimTime, SimDuration) {
  // Enrollment: the first cold start is the operator's signal to provision the
  // function, budget permitting. The budget is per home region, so a region's
  // enrollments depend only on its own functions' arrivals, in any shard plan.
  int& enrolled = enrolled_per_region_.at(spec.region);
  if (enrolled >= options_.max_provisioned_functions) {
    return;
  }
  if (provisioned_.insert(spec.id).second) {
    ++enrolled;
    ++enrolled_total_;
  }
}

void ProvisionedConcurrencyPolicy::OnMinuteTick(SimTime) {
  COLDSTART_CHECK(platform_ != nullptr);
  for (const trace::FunctionId fid : provisioned_) {
    // Top the function back up to its one-pod floor. alive_pod_count includes
    // warming pods, so a top-up in flight is never doubled.
    if (platform_->alive_pod_count(fid) == 0) {
      platform_->SpawnPrewarmedPod(fid, platform_->spec(fid).region, kFloorPodKeepAlive);
      ++floor_spawns_;
    }
  }
}

bool ProvisionedConcurrencyPolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.I64(floor_spawns_);
  w.I64(floor_hits_);
  w.I64(floor_misses_);
  w.I64(enrolled_total_);
  w.U64(provisioned_.size());
  for (const trace::FunctionId fid : provisioned_) {  // std::set: already sorted.
    w.U64(fid);
  }
  *out = w.Take();
  return true;
}

bool ProvisionedConcurrencyPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(provisioned_.empty());
  ByteReader r(blob);
  floor_spawns_ = r.I64();
  floor_hits_ = r.I64();
  floor_misses_ = r.I64();
  enrolled_total_ = r.I64();
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    const auto fid = static_cast<trace::FunctionId>(r.U64());
    // SavePolicyState writes each fid once and within its region's budget.
    COLDSTART_CHECK(provisioned_.insert(fid).second);
    COLDSTART_CHECK_LE(++enrolled_per_region_.at(platform_->spec(fid).region),
                       options_.max_provisioned_functions);
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
