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

template <class Ar, class Self>
void ProvisionedConcurrencyPolicy::Layout(Ar& a, Self& self) {
  a.I64(self.floor_spawns_);
  a.I64(self.floor_hits_);
  a.I64(self.floor_misses_);
  a.I64(self.enrolled_total_);
  std::vector<trace::FunctionId> fids(self.provisioned_.begin(), self.provisioned_.end());
  a.Count(fids, 8);
  for (auto& fid : fids) {
    a.U64(fid);
  }
  if constexpr (Ar::kReading) {
    for (const trace::FunctionId fid : fids) {
      // SavePolicyState writes each fid of the population once and within its
      // region's budget.
      COLDSTART_CHECK_LT(fid, self.platform_->num_functions());
      COLDSTART_CHECK(self.provisioned_.insert(fid).second);
      COLDSTART_CHECK_LE(++self.enrolled_per_region_.at(self.platform_->spec(fid).region),
                         self.options_.max_provisioned_functions);
    }
  }
}

bool ProvisionedConcurrencyPolicy::SavePolicyState(std::string* out) const {
  *out = SaveLayout(*this);
  return true;
}

bool ProvisionedConcurrencyPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(provisioned_.empty());
  RestoreLayout(blob, *this);
  return true;
}

}  // namespace coldstart::policy
