// Asynchronous peak shaving (§3.3 / §5 "Synchronous vs. asynchronous calls").
//
// When the region is under cold-start pressure, asynchronous, non-latency-critical
// requests are admitted with a bounded delay, moving their pod allocations out of the
// peak ("even a short delay could significantly reduce peak pod allocations").
// Deadline-insensitive triggers (object-storage and log events, §3.3, and the
// stream/message triggers) are delayed; timers keep their schedule, and
// synchronous triggers are never delayed (the platform enforces this).
#ifndef COLDSTART_POLICY_PEAK_SHAVING_H_
#define COLDSTART_POLICY_PEAK_SHAVING_H_

#include <memory>
#include <vector>

#include "platform/policy_hooks.h"

namespace coldstart::policy {

class PeakShavingPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    SimDuration max_delay = kMinute;  // Delays spread over (0, max_delay].
  };

  PeakShavingPolicy() : PeakShavingPolicy(Options{}) {}
  explicit PeakShavingPolicy(Options options) : options_(options) {}

  SimDuration AdmissionDelay(const workload::FunctionSpec& spec, SimTime now,
                             const platform::RegionLoadState& load) override;

  // Reads only the home region's load; jitter state is kept per region so sharded
  // runs replay the exact serial delay sequence.
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<PeakShavingPolicy>(options_);
  }
  void AbsorbShardStats(const platform::PlatformPolicy& shard) override {
    delays_issued_ += static_cast<const PeakShavingPolicy&>(shard).delays_issued_;
  }

  int64_t delays_issued() const { return delays_issued_; }

  // Checkpointable: the delay counter and the per-region jitter streams.
  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;
  // The blob's layout (common/byte_serde.h).
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

 private:
  // Cheap deterministic jitter state for `region`, seeded per region.
  uint64_t& MixFor(trace::RegionId region);

  Options options_;
  int64_t delays_issued_ = 0;
  std::vector<uint64_t> mix_;  // Per region.
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_PEAK_SHAVING_H_
