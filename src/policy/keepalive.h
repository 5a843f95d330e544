// Dynamic keep-alive (§5: "Cloud providers may consider a dynamic keep-alive time").
//
// Learns each function's inter-arrival time online (an EWMA) and sizes the keep-alive
// window to it: functions that return within a bit more than their IAT keep their
// pods warm (fewer cold starts), while functions firing far apart release pods almost
// immediately (less wasted pod-time than the fixed default). Until a function has
// three inter-arrival samples the policy leaves it the platform's default.
#ifndef COLDSTART_POLICY_KEEPALIVE_H_
#define COLDSTART_POLICY_KEEPALIVE_H_

#include <memory>

#include "platform/policy_hooks.h"
#include "policy/function_table.h"

namespace coldstart::policy {

class DynamicKeepAlivePolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    SimDuration max_keep_alive = 10 * kMinute;
    double headroom = 1.25;  // Keep-alive = headroom x IAT estimate.
  };

  DynamicKeepAlivePolicy() : DynamicKeepAlivePolicy(Options{}) {}
  explicit DynamicKeepAlivePolicy(Options options) : options_(options) {}

  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override;
  SimDuration KeepAliveFor(const workload::FunctionSpec& spec, SimTime now) override;

  // Per-function IAT state only: shards cleanly by region.
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<DynamicKeepAlivePolicy>(options_);
  }
  // Keep-alive decisions read only the function's own IAT history — no pools,
  // no region load — so capacity-cell shards see identical inputs.
  bool is_function_local() const override { return true; }

  // Checkpointable: the learned state is the per-function IAT table.
  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;
  // The blob's layout (common/byte_serde.h).
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

 private:
  struct History {
    SimTime last_arrival = -1;
    double iat_ewma = 0;
    int observations = 0;
  };

  Options options_;
  const platform::Platform* platform_ = nullptr;
  FunctionTable<History> history_;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_KEEPALIVE_H_
