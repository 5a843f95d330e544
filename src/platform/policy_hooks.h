// Extension points for scheduling/mitigation policies (§5 of the paper).
//
// The baseline platform implements the production behaviour described in §2.2 (fixed
// 60 s keep-alive, home-region execution, no prewarming, no admission control).
// Policies override these hooks; concrete implementations live in src/policy/.
#ifndef COLDSTART_PLATFORM_POLICY_HOOKS_H_
#define COLDSTART_PLATFORM_POLICY_HOOKS_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/sim_time.h"
#include "platform/load_state.h"
#include "workload/function_model.h"

namespace coldstart::platform {

class Platform;

class PlatformPolicy {
 public:
  virtual ~PlatformPolicy() = default;

  // --- Parallel-execution traits (core::Experiment's region sharding). ---
  // True when the policy's decisions for a function depend only on that function's
  // home region: no cross-region observation or routing. Region-local policies can
  // run one independent instance per region shard; CrossRegionPolicy is the one
  // built-in policy that must return false.
  virtual bool is_region_local() const { return true; }

  // Stronger locality for sub-region sharding: true when the policy's decisions
  // for a function depend only on that function's own observations (arrivals,
  // cold starts, workflow edges — all of which stay inside the function's
  // capacity cell), never on region-level capacity-coupled state (pools, the
  // region load aggregate, a per-region budget). Function-local policies can
  // run one independent instance per capacity-cell shard; everything else pins
  // the region to a single cell. Default false: region-level coupling is the
  // common case (the per-region budgets of ProfilePrewarm and
  // ProvisionedConcurrency, PeakShaving's load window, PoolPrediction's pool
  // targets), so opting in is an explicit claim.
  virtual bool is_function_local() const { return false; }

  // A fresh instance with this policy's configuration (but none of its learned
  // state) for one shard of a parallel run (a region, or a capacity-cell group
  // when is_function_local()). Returning nullptr (the default) declares the
  // policy non-shardable and forces the one-shard (serial) plan. The runner
  // calls it as each shard starts, while earlier shards may still run, but
  // never at the same time as another CloneForShard or AbsorbShardStats on
  // this instance.
  virtual std::unique_ptr<PlatformPolicy> CloneForShard() const { return nullptr; }

  // Folds a finished shard's observable statistics (prewarm/delay counters and the
  // like) back into this prototype after a sharded run, so `policy.xxx_issued()`
  // reads the same totals whether the run was sharded or serial. `shard` is always
  // an instance this policy's CloneForShard() produced. Learned state stays with
  // the shard — it is per-region by construction and dies with the run.
  virtual void AbsorbShardStats(const PlatformPolicy& shard) { (void)shard; }

  // Called once when the platform is constructed; policies keep the pointer to spawn
  // prewarmed pods or adjust pool targets.
  virtual void OnAttach(Platform& platform) { (void)platform; }

  // Admission delay for an *asynchronously triggered* request (peak shaving). The
  // platform asks once per request; returning 0 admits immediately. Synchronous
  // triggers are never delayed.
  virtual SimDuration AdmissionDelay(const workload::FunctionSpec& spec, SimTime now,
                                     const RegionLoadState& load) {
    (void)spec;
    (void)now;
    (void)load;
    return 0;
  }

  // Keep-alive granted to a pod of `spec` going idle at `now`. The production default
  // is one minute (§2.2). The platform asks when it binds a request that ends last
  // on its pod, so `now` is that request's end — the pod's idle start — and lies in
  // the simulated future; it is not monotone across calls (a short request bound
  // later can end before a long one bound earlier). A later-ending request bound
  // before `now` asks again and replaces the answer. The shipped overrides read no
  // clock: they answer from state observed up to the bind (arrivals, forecasts).
  virtual SimDuration KeepAliveFor(const workload::FunctionSpec& spec, SimTime now) {
    (void)spec;
    (void)now;
    return kMinute;
  }

  // Region in which a needed cold start should run (cross-region scheduling). The
  // platform adds the inter-region RTT to scheduling time when this differs from the
  // function's home region.
  virtual trace::RegionId RouteColdStart(const workload::FunctionSpec& spec, SimTime now) {
    (void)now;
    return spec.region;
  }

  // Observation hooks (for learning policies).
  virtual void OnArrival(const workload::FunctionSpec& spec, SimTime now) {
    (void)spec;
    (void)now;
  }
  virtual void OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                           SimDuration total) {
    (void)spec;
    (void)now;
    (void)total;
  }
  // Fired when a request of a function with workflow children starts executing; chain
  // predictors prewarm the children here.
  virtual void OnParentRequestStart(const workload::FunctionSpec& parent, SimTime now) {
    (void)parent;
    (void)now;
  }

  // Control-loop tick, once per simulated minute.
  virtual void OnMinuteTick(SimTime now) { (void)now; }

  // --- Checkpoint traits (src/checkpoint/). ---
  // Serializes every piece of learned state into `out` so a resumed run
  // continues bit-identically; every shipped policy does. Returning false (the
  // default) declares a custom policy non-checkpointable: a checkpointed Run
  // then fails loudly up front instead of silently dropping policy state.
  //
  // Implementer contract (statically checked: coldstart_lint's policy-hooks
  // rule flags stateful subclasses missing these overrides, and its
  // unordered-iter rule polices (a)): (a) iteration order must never leak into
  // the blob — per-function state lives in a policy::FunctionTable, which
  // iterates in function-id order by construction; (b) floating-point state
  // travels by bit pattern (common/byte_serde.h); (c) future actions go
  // through the platform, never through the simulator: a policy acts now
  // (SpawnPrewarmedPod), later (SpawnPrewarmedPodAt), or from the minute tick,
  // and the platform keeps each pending event in its checkpointed event table.
  // The Platform exposes no simulator, so a policy cannot queue an event that
  // a checkpoint would lose.
  virtual bool SavePolicyState(std::string* out) const {
    (void)out;
    return false;
  }
  // Restores state written by SavePolicyState onto a freshly constructed,
  // identically configured instance (after OnAttach). Returns false when
  // unsupported; must accept exactly what SavePolicyState produces.
  virtual bool RestorePolicyState(std::string_view blob) {
    (void)blob;
    return false;
  }
};

}  // namespace coldstart::platform

#endif  // COLDSTART_PLATFORM_POLICY_HOOKS_H_
