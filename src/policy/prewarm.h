// Prewarming policies (§4.3 / §5 "Predicting cold starts").
//
// TimerAwarePrewarmPolicy: learns each function's inter-arrival period online (timers
// are strictly periodic, so the estimate converges after two arrivals) and, once the
// period has held within 5% for three intervals, spawns a prewarmed pod 5 s before
// the next predicted fire when the period exceeds the platform's default keep-alive
// (and is at most two hours). This directly targets the Fig. 14 diagonal: timer
// functions that cold-start on every invocation. The pending spawn is a platform
// event (Platform::SpawnPrewarmedPodAt), so the policy checkpoints like any other.
//
// ProfilePrewarmPolicy: watches functions that recently cold-started and keeps a pod
// warm when the learned minute-of-day profile predicts an imminent invocation (0.3
// expected arrivals in the next minute) — the "pre-warm pods with popular
// configurations" direction of §3.3.
#ifndef COLDSTART_POLICY_PREWARM_H_
#define COLDSTART_POLICY_PREWARM_H_

#include <memory>
#include <set>
#include <vector>

#include "platform/platform.h"
#include "policy/function_table.h"

namespace coldstart::policy {

class TimerAwarePrewarmPolicy : public platform::PlatformPolicy {
 public:
  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override;

  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;
  // The blob's layout (common/byte_serde.h).
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

  // Per-function period estimates only: shards cleanly by region.
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<TimerAwarePrewarmPolicy>();
  }
  // Period estimates and prewarm spawns are keyed by the observed function
  // alone (ProfilePrewarm, by contrast, competes functions for a per-region
  // per-tick budget and must stay region-level).
  bool is_function_local() const override { return true; }
  void AbsorbShardStats(const platform::PlatformPolicy& shard) override {
    prewarms_issued_ +=
        static_cast<const TimerAwarePrewarmPolicy&>(shard).prewarms_issued_;
  }

  int64_t prewarms_issued() const { return prewarms_issued_; }

 private:
  struct FunctionHistory {
    SimTime last_arrival = -1;
    double period_estimate = 0;  // µs.
    int stable_count = 0;
  };

  platform::Platform* platform_ = nullptr;
  FunctionTable<FunctionHistory> history_;
  int64_t prewarms_issued_ = 0;
};

class ProfilePrewarmPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    int max_prewarms_per_tick = 50;  // Per home region.
  };

  ProfilePrewarmPolicy() : ProfilePrewarmPolicy(Options{}) {}
  explicit ProfilePrewarmPolicy(Options options) : options_(options) {}

  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override;
  void OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                   SimDuration total) override;
  void OnMinuteTick(SimTime now) override;

  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;
  // The blob's layout (common/byte_serde.h).
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

  // Per-function minute-of-day profiles and a per-region budget: shards
  // cleanly by region.
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<ProfilePrewarmPolicy>(options_);
  }
  void AbsorbShardStats(const platform::PlatformPolicy& shard) override {
    prewarms_issued_ +=
        static_cast<const ProfilePrewarmPolicy&>(shard).prewarms_issued_;
  }

  int64_t prewarms_issued() const { return prewarms_issued_; }

 private:
  struct Profile {
    // Smoothed arrivals per minute-of-day (1440 bins), updated online.
    std::vector<float> per_minute = std::vector<float>(1440, 0.f);
  };

  Options options_;
  platform::Platform* platform_ = nullptr;
  FunctionTable<Profile> profiles_;
  // Cold-started recently. Ordered: OnMinuteTick walks it under a prewarm
  // budget, so which functions win the budget must not depend on hash order.
  std::set<trace::FunctionId> watch_list_;
  int64_t prewarms_issued_ = 0;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_PREWARM_H_
