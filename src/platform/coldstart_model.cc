#include "platform/coldstart_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace coldstart::platform {

namespace {

// LogNormal multiplicative noise with median 1 and the given sigma.
double Noise(Rng& rng, double sigma) { return std::exp(sigma * rng.NextGaussian()); }

// Seconds -> SimDuration with a 1 µs floor (component resolutions in Table 1 are µs,
// and a measured component is never exactly zero when the step executes).
SimDuration Dur(double seconds) {
  return std::max<SimDuration>(1, FromSeconds(seconds));
}

workload::ColdStartArchitecture ArchitectureFor(const workload::RegionProfile& profile) {
  switch (profile.model.kind) {
    case workload::ColdStartModelKind::kYuanRong:
      return profile.arch;
    case workload::ColdStartModelKind::kAwsLike:
      return AwsLikeArchitecture();
    case workload::ColdStartModelKind::kGcpLike:
      return GcpLikeArchitecture();
    case workload::ColdStartModelKind::kAzureLike:
      return AzureLikeArchitecture();
  }
  COLDSTART_CHECK(false && "unknown ColdStartModelKind");
  return profile.arch;
}

}  // namespace

// --- Provider architectures. -------------------------------------------------
//
// Constants are fitted so the *unloaded* component sums land on the cold/warm
// latencies that public benchmarks report for small interpreted-language
// functions, with the spread widened to cover the published tails:
//   AWS   — warm invocations add ~10-30 ms; cold starts cluster at 0.2-0.6 s,
//           container-image (from-scratch) paths at several seconds.
//   GCP   — cold starts cluster at 2-4 s, dominated by instance scheduling and
//           code fetch; warm overhead tens of ms.
//   Azure — cold starts 3-6 s with a pronounced heavy tail (>10 s excursions),
//           the widest variance of the three.
// Congestion/rate coefficients keep the YuanRong shape but are toned to each
// provider's observed sensitivity; the pool stages map onto each provider's
// pre-provisioned sandbox tiers.

workload::ColdStartArchitecture AwsLikeArchitecture() {
  workload::ColdStartArchitecture a;
  a.alloc_stage1_median_s = 0.015;  // MicroVM pool hit.
  a.alloc_sigma = 0.4;
  a.alloc_stage_growth = 4.0;
  a.alloc_scratch_median_s = 0.35;  // Fresh microVM boot.
  a.alloc_scratch_sigma = 0.4;
  a.custom_scratch_median_s = 4.0;  // Container-image pull + boot.
  a.alloc_congestion_coeff = 0.002;
  a.code_base_s = 0.05;
  a.code_bandwidth_kb_per_s = 60000;
  a.code_congestion_coeff = 0.03;
  a.dep_base_s = 0.06;
  a.dep_bandwidth_kb_per_s = 20000;
  a.dep_congestion_coeff = 0.05;
  a.sched_base_s = 0.06;
  a.sched_sigma = 0.35;
  a.sched_queue_coeff_s = 0.004;
  a.sched_rate_coeff = 0.001;
  a.post_holiday_dep_penalty = 1.2;
  return a;
}

workload::ColdStartArchitecture GcpLikeArchitecture() {
  workload::ColdStartArchitecture a;
  a.alloc_stage1_median_s = 0.04;
  a.alloc_sigma = 0.5;
  a.alloc_stage_growth = 5.0;
  a.alloc_scratch_median_s = 1.4;
  a.alloc_scratch_sigma = 0.5;
  a.custom_scratch_median_s = 8.0;
  a.alloc_congestion_coeff = 0.004;
  a.code_base_s = 0.5;  // gVisor sandbox + runtime image fetch dominates.
  a.code_bandwidth_kb_per_s = 25000;
  a.code_congestion_coeff = 0.05;
  a.dep_base_s = 0.25;
  a.dep_bandwidth_kb_per_s = 10000;
  a.dep_congestion_coeff = 0.08;
  a.sched_base_s = 0.9;  // Instance scheduling is the reported bottleneck.
  a.sched_sigma = 0.5;
  a.sched_queue_coeff_s = 0.01;
  a.sched_rate_coeff = 0.002;
  a.post_holiday_dep_penalty = 1.3;
  return a;
}

workload::ColdStartArchitecture AzureLikeArchitecture() {
  workload::ColdStartArchitecture a;
  a.alloc_stage1_median_s = 0.06;
  a.alloc_sigma = 0.7;
  a.alloc_stage_growth = 6.0;
  a.alloc_scratch_median_s = 2.2;
  a.alloc_scratch_sigma = 0.9;  // The widest published cold-start spread.
  a.custom_scratch_median_s = 12.0;
  a.alloc_congestion_coeff = 0.006;
  a.code_base_s = 0.8;
  a.code_bandwidth_kb_per_s = 15000;
  a.code_congestion_coeff = 0.08;
  a.dep_base_s = 0.4;
  a.dep_bandwidth_kb_per_s = 8000;
  a.dep_congestion_coeff = 0.1;
  a.sched_base_s = 1.2;
  a.sched_sigma = 0.7;  // Heavy-tailed placement.
  a.sched_queue_coeff_s = 0.015;
  a.sched_rate_coeff = 0.003;
  a.post_holiday_dep_penalty = 1.4;
  return a;
}

// --- The engine. ------------------------------------------------------------

ColdStartModel::ColdStartModel(const workload::RegionProfile& profile,
                               const workload::Calendar& calendar)
    : arch_(ArchitectureFor(profile)), restore_(profile.model), calendar_(calendar) {
  COLDSTART_CHECK(!restore_.snapshot_restore || restore_.restore_bandwidth_mb_per_s > 0);
}

double ColdStartModel::PostHolidayDepMultiplier(SimTime now) const {
  const int64_t day = DayIndex(now);
  const int64_t since = calendar_.DaysSinceHolidayEnd(day);
  if (since < 0) {
    return 1.0;
  }
  const double extra = (arch_.post_holiday_dep_penalty - 1.0) *
                       std::exp(-static_cast<double>(since) / 1.5);
  return 1.0 + extra;
}

ColdStartComponents ColdStartModel::Compute(const workload::FunctionSpec& spec,
                                            ResourcePool& pool,
                                            const RegionLoadState& load, SimTime now,
                                            Rng& rng) const {
  const auto& arch = arch_;
  const workload::RuntimeTraits& traits = workload::TraitsOf(spec.runtime);
  ColdStartComponents out;

  // Regional congestion factor: decayed cold starts in the last ~5 minutes, with
  // saturation (a congested fabric degrades sublinearly, and this caps the
  // congestion -> overlap -> congestion feedback). The caller (Platform) refreshes
  // the window before invoking Compute.
  const double raw_window = load.cold_start_window;
  const double rate_window = raw_window / (1.0 + raw_window / arch.rate_saturation);
  // In-flight pipeline counts saturate too: queueing capacity is finite, and an
  // unbounded linear term would let overlap feed back into itself without limit.
  const double active_sat = static_cast<double>(load.active_cold_starts) /
                            (1.0 + static_cast<double>(load.active_cold_starts) / 60.0);
  const double active_code_sat = static_cast<double>(load.active_code_deploys) /
                                 (1.0 + static_cast<double>(load.active_code_deploys) / 60.0);
  const double active_dep_sat = static_cast<double>(load.active_dep_deploys) /
                                (1.0 + static_cast<double>(load.active_dep_deploys) / 60.0);

  // --- Pod allocation. ---
  double alloc_s = 0;
  if (!traits.pool_backed) {
    // Custom images have no reserved pool: the pod is built from scratch and the
    // container image pulled every time (the slowest allocation path, §4.4).
    out.pool_stage = 3;
    out.from_scratch = true;
    alloc_s = arch.custom_scratch_median_s * Noise(rng, arch.alloc_scratch_sigma);
  } else {
    const PoolAcquisition acq = pool.Acquire(now, rng);
    out.pool_stage = acq.stage;
    out.from_scratch = acq.from_scratch;
    if (acq.from_scratch) {
      alloc_s = arch.alloc_scratch_median_s * Noise(rng, arch.alloc_scratch_sigma);
    } else {
      const double median = arch.alloc_stage1_median_s *
                            std::pow(arch.alloc_stage_growth, acq.stage - 1);
      alloc_s = median * Noise(rng, arch.alloc_sigma);
    }
  }
  if (traits.alloc_extra_s > 0) {
    // http runtimes start an HTTP server inside the pod before it can serve.
    alloc_s += traits.alloc_extra_s * Noise(rng, 0.25);
  }
  alloc_s += arch.alloc_congestion_coeff * active_sat * rng.Uniform(0.5, 1.5);
  alloc_s *= 1.0 + arch.alloc_rate_coeff * rate_window;
  out.pod_alloc = Dur(alloc_s);

  // --- Code deployment. ---
  const double code_congestion = (1.0 + arch.code_congestion_coeff * active_code_sat) *
                                 (1.0 + arch.code_rate_coeff * rate_window);
  const double code_s = (arch.code_base_s + static_cast<double>(spec.code_size_kb) /
                                                arch.code_bandwidth_kb_per_s) *
                        traits.code_factor * code_congestion * Noise(rng, 0.30);
  out.deploy_code = Dur(code_s);

  // --- Dependency deployment (exactly zero without layers; excluded from Fig. 13d). ---
  if (spec.dep_size_kb > 0) {
    const double dep_congestion = (1.0 + arch.dep_congestion_coeff * active_dep_sat) *
                                  (1.0 + arch.dep_rate_coeff * rate_window);
    const double dep_s = (arch.dep_base_s + static_cast<double>(spec.dep_size_kb) /
                                                arch.dep_bandwidth_kb_per_s) *
                         traits.dep_factor * dep_congestion *
                         PostHolidayDepMultiplier(now) * Noise(rng, 0.35);
    out.deploy_dep = Dur(dep_s);
  }

  // --- Scheduling. ---
  const double sched_s =
      arch.sched_base_s * traits.sched_factor * Noise(rng, arch.sched_sigma) *
          (1.0 + arch.sched_rate_coeff * rate_window) +
      arch.sched_queue_coeff_s * active_sat * rng.Uniform(0.7, 1.3);
  out.scheduling = Dur(sched_s);

  // --- Snapshot restore. ---
  // The deploy terms above still ran (same pool draw, same rng words), so alloc
  // and scheduling stay the architecture's own; only the init components
  // collapse into paging a pre-initialized sandbox image back in.
  if (restore_.snapshot_restore) {
    const double restore_s =
        (restore_.restore_base_s +
         restore_.snapshot_memory_mb / restore_.restore_bandwidth_mb_per_s) *
        Noise(rng, restore_.restore_sigma);
    out.deploy_code = Dur(restore_s);
    out.deploy_dep = 0;  // The snapshot already contains initialized layers.
  }
  return out;
}

}  // namespace coldstart::platform
