// Prewarming policies (§4.3 / §5 "Predicting cold starts").
//
// TimerAwarePrewarmPolicy: learns each function's inter-arrival period online (timers
// are strictly periodic, so the estimate converges after two arrivals) and spawns a
// prewarmed pod shortly before the next predicted fire when the period exceeds the
// keep-alive window. This directly targets the Fig. 14 diagonal: timer functions that
// cold-start on every invocation. The pending spawn is a platform event
// (Platform::SpawnPrewarmedPodAt), so the policy checkpoints like any other.
//
// ProfilePrewarmPolicy: watches functions that recently cold-started and keeps a pod
// warm when the learned minute-of-day profile predicts an imminent invocation —
// the "pre-warm pods with popular configurations" direction of §3.3.
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
  struct Options {
    SimDuration lead_time = 5 * kSecond;    // Spawn this long before the predicted fire.
    SimDuration max_period = 2 * kHour;     // Don't prewarm rarer functions than this.
    double stability_tolerance = 0.05;      // |IAT - estimate| / estimate to call it periodic.
    int min_observations = 3;
  };

  TimerAwarePrewarmPolicy();
  explicit TimerAwarePrewarmPolicy(Options options);

  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override;

  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;

  // Per-function period estimates only: shards cleanly by region.
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<TimerAwarePrewarmPolicy>(options_);
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

  Options options_;
  platform::Platform* platform_ = nullptr;
  FunctionTable<FunctionHistory> history_;
  int64_t prewarms_issued_ = 0;
};

class ProfilePrewarmPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    double min_expected_arrivals = 0.3;  // Prewarm when next-minute prediction exceeds.
    SimDuration prewarm_keep_alive = 2 * kMinute;
    int max_prewarms_per_tick = 50;  // Per home region.
  };

  ProfilePrewarmPolicy();
  explicit ProfilePrewarmPolicy(Options options);

  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override;
  void OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                   SimDuration total) override;
  void OnMinuteTick(SimTime now) override;

  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;

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
