// Provisioned concurrency (§6 "Mitigations" / provider comparison): an
// always-ready one-pod floor per enrolled function, the simulation analogue of AWS
// provisioned concurrency / Azure premium pre-warmed instances. Functions enroll
// on their first user-visible cold start (the operator reacting to a cold-start
// complaint), up to a budget per home region; every minute the policy tops each
// enrolled function back up to its floor with prewarmed pods. The cost side —
// the floor pods' pod-seconds and warm-idle-seconds — lands in the resource-cost
// ledger, which is the point: provisioned concurrency trades always-on spend for
// tail latency, and the ledger makes the trade quantitative.
#ifndef COLDSTART_POLICY_PROVISIONED_H_
#define COLDSTART_POLICY_PROVISIONED_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.h"

namespace coldstart::policy {

class ProvisionedConcurrencyPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    int max_provisioned_functions = 200;  // Enrollment budget per home region.
  };

  ProvisionedConcurrencyPolicy() : ProvisionedConcurrencyPolicy(Options{}) {}
  explicit ProvisionedConcurrencyPolicy(Options options) : options_(options) {}

  void OnAttach(platform::Platform& platform) override {
    platform_ = &platform;
    enrolled_per_region_.assign(platform.profiles().size(), 0);
  }
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override;
  void OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                   SimDuration total) override;
  void OnMinuteTick(SimTime now) override;

  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;

  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<ProvisionedConcurrencyPolicy>(options_);
  }
  void AbsorbShardStats(const platform::PlatformPolicy& shard) override {
    const auto& other = static_cast<const ProvisionedConcurrencyPolicy&>(shard);
    floor_spawns_ += other.floor_spawns_;
    floor_hits_ += other.floor_hits_;
    floor_misses_ += other.floor_misses_;
    enrolled_total_ += other.enrolled_total_;
  }

  // Utilization counters: how often an enrolled function's arrival actually
  // found a ready pod (hit) vs. raced past the floor (miss), and how many
  // top-up pods the floor cost.
  int64_t floor_spawns() const { return floor_spawns_; }
  int64_t floor_hits() const { return floor_hits_; }
  int64_t floor_misses() const { return floor_misses_; }
  int64_t enrolled_functions() const { return enrolled_total_; }

 private:
  Options options_;
  platform::Platform* platform_ = nullptr;
  // Enrolled functions. Ordered: OnMinuteTick walks it to spawn pods, so the
  // spawn order (and thus every downstream RNG draw) must not depend on hash
  // order.
  std::set<trace::FunctionId> provisioned_;
  // Enrolled functions per home region: derived from provisioned_, never saved.
  std::vector<int> enrolled_per_region_;
  int64_t floor_spawns_ = 0;
  int64_t floor_hits_ = 0;
  int64_t floor_misses_ = 0;
  int64_t enrolled_total_ = 0;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_PROVISIONED_H_
