// Per-region calibration: workload mix + data-center architecture.
//
// A RegionProfile is everything that distinguishes R1..R5 in the paper: scale, function
// mix (runtime x trigger x config), popularity distribution, diurnal phase, holiday
// response, and the cold-start architecture (component base latencies and congestion
// sensitivities). DESIGN.md §4 lists the figure-level targets each constant serves;
// volumes are scaled (~10^-4 of production) as documented in EXPERIMENTS.md.
#ifndef COLDSTART_WORKLOAD_REGION_PROFILE_H_
#define COLDSTART_WORKLOAD_REGION_PROFILE_H_

#include <array>
#include <utility>
#include <vector>

#include "trace/types.h"
#include "workload/diurnal.h"
#include "workload/function_model.h"

namespace coldstart::workload {

// Index order for trigger-assignment rows (condensed choice set; "other" choices are
// expanded to concrete raw triggers during population generation).
enum class TriggerChoice : int {
  kApigS = 0,
  kTimer,
  kObs,
  kWorkflowS,
  kOtherAsync,
  kOtherSync,
};
inline constexpr int kNumTriggerChoices = 6;

// Component-latency model of one region's data center (§4.2): base costs plus
// sensitivities to instantaneous load. These coefficients are the "architectural
// differences between data centers" axis; the same workload run against different
// architectures yields different dominant components, which is exactly the Fig. 11
// cross-region contrast.
struct ColdStartArchitecture {
  // Pod allocation: staged pool search. Stage 1 hits the local cluster pool; each
  // expansion multiplies the median latency by stage_growth. From-scratch creation
  // (pool exhausted) costs scratch_median_s; Custom-image pods, which have no reserved
  // pool at all and must pull their container image, cost custom_scratch_median_s
  // (§4.4: Custom/http medians exceed 10 s).
  double alloc_stage1_median_s = 0.01;
  double alloc_sigma = 0.6;             // LogNormal sigma for every allocation stage.
  double alloc_stage_growth = 6.0;
  double alloc_scratch_median_s = 2.0;
  double alloc_scratch_sigma = 0.5;
  double custom_scratch_median_s = 10.0;
  double alloc_congestion_coeff = 0.0;  // Seconds added per concurrent cold start.

  // Code deployment: download + extract at code_bandwidth, inflated by registry
  // congestion (fraction per concurrent deploy).
  double code_base_s = 0.03;
  double code_bandwidth_kb_per_s = 30000;
  double code_congestion_coeff = 0.05;

  // Dependency deployment (zero-cost for functions without layers).
  double dep_base_s = 0.1;
  double dep_bandwidth_kb_per_s = 9000;
  double dep_congestion_coeff = 0.1;

  // Scheduling/routing overhead: base + per-queued-cold-start queueing term.
  double sched_base_s = 0.2;
  double sched_sigma = 0.45;
  double sched_queue_coeff_s = 0.01;

  // Rate coupling: multiplicative slowdown per unit of the region's decayed
  // cold-start window (~cold starts in the last 5 minutes). These coefficients pick
  // which components track regional demand, i.e. which cells of the Figure 12
  // correlation matrices light up for this region.
  double sched_rate_coeff = 0.0;
  double dep_rate_coeff = 0.0;
  double alloc_rate_coeff = 0.0;
  double code_rate_coeff = 0.0;
  // The window saturates (diminishing marginal slowdown) so burst storms cannot run
  // away through the congestion -> overlap -> congestion feedback loop.
  double rate_saturation = 120.0;

  // Multiplier applied to dependency deployment on the first post-holiday workdays
  // (cold registry caches + first-time redeployments, Fig. 11 day-24 spike).
  double post_holiday_dep_penalty = 1.6;
};

// Which cold-start model prices this region's cold starts. kYuanRong is the
// paper-calibrated default (this profile's `arch`); the *Like presets swap in
// architectures parameterized from published cold/warm latency benchmarks of the
// respective public clouds. platform/coldstart_model.h reads this config.
// Selection is part of the scenario fingerprint: changing the model invalidates
// the trace cache.
enum class ColdStartModelKind : uint8_t {
  kYuanRong = 0,
  kAwsLike = 1,
  kGcpLike = 2,
  kAzureLike = 3,
};

struct ColdStartModelConfig {
  ColdStartModelKind kind = ColdStartModelKind::kYuanRong;

  // Snapshot restore (arXiv 2105.13894): collapse deploy-code and
  // deploy-dep into one restore term, paying `snapshot_memory_mb` of resident
  // memory per pod (the cost ledger integrates it over pod lifetimes).
  bool snapshot_restore = false;
  double restore_base_s = 0.15;             // Fixed restore orchestration cost.
  double restore_bandwidth_mb_per_s = 800;  // Snapshot page-in bandwidth.
  double restore_sigma = 0.25;              // LogNormal sigma on the restore term.
  double snapshot_memory_mb = 128.0;        // Per-pod resident snapshot surcharge.
};

struct RegionProfile {
  trace::RegionId region = 0;
  int num_functions = 500;

  // Users: fraction owning exactly one function (Fig. 4a: 60-90% by region); the rest
  // follow a geometric tail capped at max_functions_per_user.
  double single_function_user_fraction = 0.75;
  int max_functions_per_user = 60;

  // Popularity (requests/day) of modulated-Poisson functions: bounded Pareto.
  double popularity_alpha = 0.8;
  double popularity_min_per_day = 0.5;
  double popularity_max_per_day = 2880;  // ~2 requests/minute sustained.
  // Fraction of OBS-triggered functions that are *hot* feeds: object streams busy all
  // day (rate above the keep-alive threshold), holding standing pod fleets (Fig. 8d's
  // OBS pod share). The rest are sporadic processors at natural popularity rates.
  double obs_hot_fraction = 0.3;
  // Same split for http services: hot ones serve steady traffic (warm pods), the rest
  // are sporadic internal endpoints. There is deliberately no mass in between -- a
  // mid-rate http service would cold-start its 10s server on every request, which the
  // paper's per-runtime cold-start counts (Fig. 8e) rule out.
  double http_hot_fraction = 0.25;

  // Execution profile (Fig. 3b): per-function median ~ LogNormal around
  // exec_median_s with spread exec_median_sigma; per-request sigma below.
  double exec_median_s = 0.05;
  double exec_median_sigma = 1.2;
  double exec_request_sigma = 0.8;
  // CPU usage (Fig. 3c), cores; clamped to the function's config at request time.
  double cpu_median_cores = 0.2;
  double cpu_sigma = 0.7;

  DiurnalParams diurnal;

  std::array<double, trace::kNumRuntimes> runtime_weights{};
  std::array<std::array<double, kNumTriggerChoices>, trace::kNumRuntimes>
      trigger_given_runtime{};
  std::array<double, trace::kNumResourceConfigs> config_weights{};

  // Timer period mix: (period, weight). Periods <= 60 s keep pods warm forever; periods
  // just above 60 s produce one cold start per fire (the Fig. 14 diagonal).
  std::vector<std::pair<SimDuration, double>> timer_period_weights;

  // Burstiness personalities (Fig. 6 peak-to-trough spread).
  double bursty_function_fraction = 0.35;
  double burst_amp_median = 4.0;
  double burst_amp_sigma = 1.1;  // LogNormal sigma; tail reaches >100x amplitudes.
  double diurnal_exponent_min = 0.4;
  double diurnal_exponent_max = 2.2;

  // Fraction of (Java, this region) functions that switch from flat to diurnal traffic
  // mid-trace -- reproduces the Fig. 8b day-18 Java regime change in R2.
  double java_regime_change_fraction = 0.0;
  int java_regime_change_day = 18;

  // Resource pools: base pool size per config and background refill rate.
  std::array<int, trace::kNumResourceConfigs> pool_base_size{};
  double pool_refill_per_min = 4.0;

  ColdStartArchitecture arch;

  // Cold-start model selection (provider presets, snapshot restore). The default
  // reproduces the YuanRong pipeline bit for bit.
  ColdStartModelConfig model;

  // Round-trip latency to the closest peer region (cross-region policy experiments).
  double inter_region_rtt_ms = 40.0;

  // Fraction of functions pinned to a single cluster (no intra-region balancing).
  double single_cluster_fraction = 0.2;
};

// The five calibrated regions, index i = R(i+1).
const std::vector<RegionProfile>& DefaultRegionProfiles();

// Returns a copy with function counts and pool sizes scaled by `scale` (0 < scale <= 4);
// used by tests and the quickstart example to run small scenarios.
RegionProfile ScaledProfile(const RegionProfile& profile, double scale);

}  // namespace coldstart::workload

#endif  // COLDSTART_WORKLOAD_REGION_PROFILE_H_
