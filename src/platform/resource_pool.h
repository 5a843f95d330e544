// Pools of inactive pods, one per (region, CPU-memory configuration).
//
// Cold starts draw pods from the pool via a staged search (§4.2): the search starts in
// the local cluster's pool and expands outward when pods are scarce; if the pool is
// exhausted the pod is created from scratch. Stage depth is driven by live occupancy,
// so large configurations (small pools) expand more often — the mechanism behind the
// multimodal allocation times and the small/large gap of Figure 13.
//
// Refill is a lazy token bucket: a provisioner adds pods toward the target at a fixed
// rate, computed on demand so no periodic simulator events are needed.
#ifndef COLDSTART_PLATFORM_RESOURCE_POOL_H_
#define COLDSTART_PLATFORM_RESOURCE_POOL_H_

#include "common/rng.h"
#include "common/sim_time.h"

namespace coldstart::platform {

struct PoolAcquisition {
  int stage = 1;             // 1 = local hit, 2 = expanded, 3 = deep region-wide search.
  bool from_scratch = false; // Pool exhausted (or runtime not pool-backed).
};

class ResourcePool {
 public:
  ResourcePool() = default;  // An empty pool that never refills.
  ResourcePool(int target, double refill_per_min);

  // Draws one pod at `now`, returning how deep the search had to go.
  PoolAcquisition Acquire(SimTime now, Rng& rng);

  // Recycles capacity when a pod of this configuration is deleted.
  void Release(SimTime now);

  // Idle pods currently available (after lazy refill).
  int free_pods(SimTime now);

  int target() const { return target_; }
  // Predictive pool-sizing policies adjust the target; free pods above the new target
  // drain through Acquire naturally.
  void SetTarget(int target);

  int64_t scratch_count() const { return scratch_count_; }

  // Checkpoint layout (common/byte_serde.h): the mutable state. Construction
  // parameters (refill_per_min_) are re-derived from the region profile on
  // restore; target_ travels because pool-sizing policies mutate it via
  // SetTarget.
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self) {
    a.I64(self.free_);
    a.I64(self.target_);
    a.F64(self.refill_credit_);
    a.I64(self.last_refill_);
    a.I64(self.scratch_count_);
  }

 private:
  void Refill(SimTime now);

  int free_ = 0;
  int target_ = 0;
  double refill_per_min_ = 0;
  double refill_credit_ = 0;
  SimTime last_refill_ = 0;
  int64_t scratch_count_ = 0;
};

}  // namespace coldstart::platform

#endif  // COLDSTART_PLATFORM_RESOURCE_POOL_H_
