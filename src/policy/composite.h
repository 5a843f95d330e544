// Composition of platform policies.
//
// The platform takes a single PlatformPolicy; CompositePolicy fans every hook out to a
// list of sub-policies so prewarming, dynamic keep-alive, peak shaving, cross-region
// routing, and pool prediction can be combined in one experiment.
//
// Combination rules: observation hooks go to everyone; AdmissionDelay takes the
// maximum requested delay; KeepAliveFor takes the first sub-policy answer that is
// not kDefaultKeepAlive, and RouteColdStart the first that leaves the home region
// (list order = priority).
#ifndef COLDSTART_POLICY_COMPOSITE_H_
#define COLDSTART_POLICY_COMPOSITE_H_

#include <memory>
#include <vector>

#include "platform/policy_hooks.h"

namespace coldstart::policy {

class CompositePolicy : public platform::PlatformPolicy {
 public:
  // Takes ownership. Returns *this for chaining.
  CompositePolicy& Add(std::unique_ptr<platform::PlatformPolicy> policy);

  // Shardable exactly when every sub-policy is: region-locality is the conjunction,
  // and a shard clone is a composite of the sub-policies' clones (nullptr if any
  // sub-policy cannot clone).
  bool is_region_local() const override;
  bool is_function_local() const override;
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override;
  void AbsorbShardStats(const platform::PlatformPolicy& shard) override;

  void OnAttach(platform::Platform& platform) override;
  SimDuration AdmissionDelay(const workload::FunctionSpec& spec, SimTime now,
                             const platform::RegionLoadState& load) override;
  SimDuration KeepAliveFor(const workload::FunctionSpec& spec, SimTime now) override;
  trace::RegionId RouteColdStart(const workload::FunctionSpec& spec, SimTime now) override;
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override;
  void OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                   SimDuration total) override;
  void OnParentRequestStart(const workload::FunctionSpec& parent, SimTime now) override;
  void OnMinuteTick(SimTime now) override;

  // Checkpointable exactly when every sub-policy is: the blob is the sub-policy
  // blobs length-prefixed in list order.
  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;

 private:
  std::vector<std::unique_ptr<platform::PlatformPolicy>> policies_;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_COMPOSITE_H_
