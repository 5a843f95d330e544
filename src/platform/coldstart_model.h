// The cold-start model: the paper's four-component pipeline (§4.2, Fig. 2),
// one engine whose constants are data.
//
// Every cold start splits into the same four components; regions differ only in
// which one dominates (R1: dependencies and scheduling; R2: pod allocation).
// Those differences live in workload::ColdStartArchitecture. The provider
// presets (AWS-, GCP-, Azure-like) are three more sets of those constants, and
// snapshot restore replaces the two deploy components with one restore term.
// A region's RegionProfile::model picks among them; see docs/architecture.md
// ("Cold-start models").
//
// Component model:
//   pod allocation  = staged pool search (depth from live pool occupancy) or
//                     from-scratch creation; http adds a server start; plus a
//                     congestion term driven by concurrent cold starts.
//   deploy code     = base + code_size/bandwidth, scaled by runtime factor and
//                     registry congestion.
//   deploy deps     = same shape over dependency size; exactly zero for functions
//                     without layers; post-holiday penalty on the first workdays.
//   scheduling      = base x runtime placement factor + queueing term per in-flight
//                     cold start.
//   snapshot restore (optional) = (restore_base + snapshot_mb / bandwidth) x noise,
//                     replacing deploy code; deploy deps become zero.
// All noise is multiplicative LogNormal so components stay positive and long-tailed.
#ifndef COLDSTART_PLATFORM_COLDSTART_MODEL_H_
#define COLDSTART_PLATFORM_COLDSTART_MODEL_H_

#include "platform/load_state.h"
#include "platform/resource_pool.h"
#include "workload/calendar.h"
#include "workload/function_model.h"
#include "workload/region_profile.h"

namespace coldstart::platform {

struct ColdStartComponents {
  SimDuration pod_alloc = 0;
  SimDuration deploy_code = 0;
  SimDuration deploy_dep = 0;
  SimDuration scheduling = 0;
  int pool_stage = 1;
  bool from_scratch = false;

  SimDuration total() const { return pod_alloc + deploy_code + deploy_dep + scheduling; }
};

// The published-benchmark architecture constants behind each provider preset.
workload::ColdStartArchitecture AwsLikeArchitecture();
workload::ColdStartArchitecture GcpLikeArchitecture();
workload::ColdStartArchitecture AzureLikeArchitecture();

// An immutable value: all of it is configuration read from the region profile,
// so one instance per region serves every cell, shard and resumed run alike.
class ColdStartModel {
 public:
  // Reads profile.model: the region's own `arch` for kYuanRong, otherwise the
  // preset's architecture; the snapshot-restore term when it is enabled. Pool
  // dynamics stay the region's own either way.
  ColdStartModel(const workload::RegionProfile& profile,
                 const workload::Calendar& calendar);

  // Computes component times for one cold start of `spec` at `now`, drawing a pod
  // from `pool` (mutates pool occupancy). Draws from `rng` in a fixed order
  // (alloc noise, optional http noise, congestion uniform, code noise, optional
  // dep noise, sched noise, queue uniform, then the restore noise under snapshot
  // restore) — the golden trace digest pins this order bit for bit.
  ColdStartComponents Compute(const workload::FunctionSpec& spec, ResourcePool& pool,
                              const RegionLoadState& load, SimTime now,
                              Rng& rng) const;

  // Per-pod resident memory surcharge in MB (0 without snapshot restore). The
  // cost ledger integrates it over each pod's lifetime into snapshot-memory MB·s.
  double snapshot_memory_mb() const {
    return restore_.snapshot_restore ? restore_.snapshot_memory_mb : 0.0;
  }

 private:
  // Multiplier > 1 on dependency deployment right after the holiday (cold caches and
  // first-time redeployments), decaying over ~2 workdays.
  double PostHolidayDepMultiplier(SimTime now) const;

  workload::ColdStartArchitecture arch_;
  workload::ColdStartModelConfig restore_;  // Only the snapshot-restore fields are read.
  workload::Calendar calendar_;
};

}  // namespace coldstart::platform

#endif  // COLDSTART_PLATFORM_COLDSTART_MODEL_H_
