#include "policy/cross_region.h"

namespace coldstart::policy {

CrossRegionPolicy::CrossRegionPolicy() : CrossRegionPolicy(Options{}) {}
CrossRegionPolicy::CrossRegionPolicy(Options options) : options_(options) {}

trace::RegionId CrossRegionPolicy::RouteColdStart(const workload::FunctionSpec& spec,
                                                  SimTime) {
  if (platform_ == nullptr) {
    return spec.region;
  }
  if (!options_.offload_synchronous && trace::IsSynchronous(spec.primary_trigger)) {
    return spec.region;
  }
  if (platform_->active_cold_starts(spec.region) < options_.home_pressure_threshold) {
    return spec.region;
  }
  // Pick the quietest peer region; offload only if it is genuinely idle.
  const int num_regions = static_cast<int>(platform_->profiles().size());
  int best = -1;
  int64_t best_load = options_.peer_quiet_threshold;
  for (int r = 0; r < num_regions; ++r) {
    if (r == spec.region) {
      continue;
    }
    const int64_t load = platform_->active_cold_starts(static_cast<trace::RegionId>(r));
    if (load < best_load) {
      best_load = load;
      best = r;
    }
  }
  return best < 0 ? spec.region : static_cast<trace::RegionId>(best);
}

}  // namespace coldstart::policy
