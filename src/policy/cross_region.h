// Cross-region cold-start scheduling (§5 "Cross-region workload scheduling").
//
// When the home region is congested (deep pool searches, long scheduler queues) and a
// peer region is quiet, new pods of asynchronously triggered (latency-tolerant)
// functions are started in the peer region instead. The platform
// charges the home region's inter-region RTT on the scheduling component, so the
// policy's benefit is exactly the paper's trade: tens of milliseconds of RTT against
// seconds of congested cold start.
#ifndef COLDSTART_POLICY_CROSS_REGION_H_
#define COLDSTART_POLICY_CROSS_REGION_H_

#include <string>
#include <string_view>

#include "platform/platform.h"

namespace coldstart::policy {

// Config-only: every decision reads the platform's current load, so there is
// no learned state to checkpoint. The offloads it made are in the trace: cold
// starts whose region differs from the function's home region.
class CrossRegionPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    int home_pressure_threshold = 10;  // Active cold starts to consider offloading.
  };

  CrossRegionPolicy() : CrossRegionPolicy(Options{}) {}
  explicit CrossRegionPolicy(Options options) : options_(options) {}

  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  trace::RegionId RouteColdStart(const workload::FunctionSpec& spec, SimTime now) override;

  // Routing decisions read every region's load and move pods across regions, so
  // the run always takes the whole-run plan.
  bool is_region_local() const override { return false; }

  bool SavePolicyState(std::string* out) const override {
    out->clear();
    return true;
  }
  bool RestorePolicyState(std::string_view blob) override { return blob.empty(); }

 private:
  Options options_;
  platform::Platform* platform_ = nullptr;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_CROSS_REGION_H_
