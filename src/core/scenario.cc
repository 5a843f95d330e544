#include "core/scenario.h"

#include <cstring>

#include "common/rng.h"

namespace coldstart::core {

namespace {

// Doubles are hashed by bit pattern (common/rng.h): any representable change to
// a coefficient yields a different fingerprint (the old scheme truncated through
// *1e6, which collapsed distinct architectures onto one cache file).
uint64_t MixDouble(uint64_t h, double v) { return MixHashDouble(h, v); }

uint64_t MixDiurnal(uint64_t h, const workload::DiurnalParams& d) {
  h = MixDouble(h, d.floor);
  h = MixHash(h, d.bumps.size());
  for (const auto& bump : d.bumps) {
    h = MixDouble(h, bump.peak_hour);
    h = MixDouble(h, bump.amplitude);
    h = MixDouble(h, bump.concentration);
  }
  h = MixDouble(h, d.weekend_factor);
  h = MixHash(h, static_cast<uint64_t>(d.holiday));
  h = MixDouble(h, d.holiday_level);
  h = MixDouble(h, d.pre_holiday_boost);
  h = MixDouble(h, d.catch_up_boost);
  h = MixDouble(h, d.catch_up_decay_days);
  return h;
}

uint64_t MixArchitecture(uint64_t h, const workload::ColdStartArchitecture& a) {
  h = MixDouble(h, a.alloc_stage1_median_s);
  h = MixDouble(h, a.alloc_sigma);
  h = MixDouble(h, a.alloc_stage_growth);
  h = MixDouble(h, a.alloc_scratch_median_s);
  h = MixDouble(h, a.alloc_scratch_sigma);
  h = MixDouble(h, a.custom_scratch_median_s);
  h = MixDouble(h, a.alloc_congestion_coeff);
  h = MixDouble(h, a.code_base_s);
  h = MixDouble(h, a.code_bandwidth_kb_per_s);
  h = MixDouble(h, a.code_congestion_coeff);
  h = MixDouble(h, a.dep_base_s);
  h = MixDouble(h, a.dep_bandwidth_kb_per_s);
  h = MixDouble(h, a.dep_congestion_coeff);
  h = MixDouble(h, a.sched_base_s);
  h = MixDouble(h, a.sched_sigma);
  h = MixDouble(h, a.sched_queue_coeff_s);
  h = MixDouble(h, a.sched_rate_coeff);
  h = MixDouble(h, a.dep_rate_coeff);
  h = MixDouble(h, a.alloc_rate_coeff);
  h = MixDouble(h, a.code_rate_coeff);
  h = MixDouble(h, a.rate_saturation);
  h = MixDouble(h, a.post_holiday_dep_penalty);
  return h;
}

uint64_t MixProfile(uint64_t h, const workload::RegionProfile& p) {
  h = MixHash(h, static_cast<uint64_t>(p.region));
  h = MixHash(h, static_cast<uint64_t>(p.num_functions));
  h = MixDouble(h, p.single_function_user_fraction);
  h = MixHash(h, static_cast<uint64_t>(p.max_functions_per_user));
  h = MixDouble(h, p.popularity_alpha);
  h = MixDouble(h, p.popularity_min_per_day);
  h = MixDouble(h, p.popularity_max_per_day);
  h = MixDouble(h, p.obs_hot_fraction);
  h = MixDouble(h, p.http_hot_fraction);
  h = MixDouble(h, p.exec_median_s);
  h = MixDouble(h, p.exec_median_sigma);
  h = MixDouble(h, p.exec_request_sigma);
  h = MixDouble(h, p.cpu_median_cores);
  h = MixDouble(h, p.cpu_sigma);
  h = MixDiurnal(h, p.diurnal);
  for (const double w : p.runtime_weights) {
    h = MixDouble(h, w);
  }
  for (const auto& row : p.trigger_given_runtime) {
    for (const double w : row) {
      h = MixDouble(h, w);
    }
  }
  for (const double w : p.config_weights) {
    h = MixDouble(h, w);
  }
  h = MixHash(h, p.timer_period_weights.size());
  for (const auto& [period, weight] : p.timer_period_weights) {
    h = MixHash(h, static_cast<uint64_t>(period));
    h = MixDouble(h, weight);
  }
  h = MixDouble(h, p.bursty_function_fraction);
  h = MixDouble(h, p.burst_amp_median);
  h = MixDouble(h, p.burst_amp_sigma);
  h = MixDouble(h, p.diurnal_exponent_min);
  h = MixDouble(h, p.diurnal_exponent_max);
  h = MixDouble(h, p.java_regime_change_fraction);
  h = MixHash(h, static_cast<uint64_t>(p.java_regime_change_day));
  for (const int size : p.pool_base_size) {
    h = MixHash(h, static_cast<uint64_t>(size));
  }
  h = MixDouble(h, p.pool_refill_per_min);
  h = MixArchitecture(h, p.arch);
  // Cold-start model selection: a different model (or snapshot-restore setting)
  // produces a different trace, so it must invalidate caches and checkpoints.
  h = MixHash(h, static_cast<uint64_t>(p.model.kind));
  h = MixHash(h, p.model.snapshot_restore ? 1 : 0);
  h = MixDouble(h, p.model.restore_base_s);
  h = MixDouble(h, p.model.restore_bandwidth_mb_per_s);
  h = MixDouble(h, p.model.restore_sigma);
  h = MixDouble(h, p.model.snapshot_memory_mb);
  h = MixDouble(h, p.inter_region_rtt_ms);
  h = MixDouble(h, p.single_cluster_fraction);
  return h;
}

}  // namespace

ScenarioConfig::ScenarioConfig() : profiles(workload::DefaultRegionProfiles()) {}

workload::Calendar ScenarioConfig::MakeCalendar() const {
  workload::Calendar::Options opts;
  opts.trace_days = days;
  return workload::Calendar(opts);
}

std::vector<workload::RegionProfile> ScenarioConfig::ScaledProfiles() const {
  std::vector<workload::RegionProfile> scaled;
  scaled.reserve(profiles.size());
  for (const auto& p : profiles) {
    scaled.push_back(scale == 1.0 ? p : workload::ScaledProfile(p, scale));
  }
  return scaled;
}

const workload::WorkloadSource& ScenarioConfig::workload_source() const {
  return workload != nullptr ? *workload : workload::DefaultSyntheticSource();
}

uint64_t ScenarioConfig::Fingerprint() const {
  // Versioned salt: bumping it (together with the cache filename scheme) retires
  // every cache file written under an older, under-hashed fingerprint. v3 added
  // the workload-source hash (synthetic vs replay, and the replayed events); v4
  // added the trace mode — checkpoints are keyed by the fingerprint, and a
  // streaming checkpoint cannot resume a full-trace run or vice versa; v5 added
  // cells_per_region — per-cell pools/loads change the generated trace; v6 adds
  // the per-profile cold-start model selection (provider presets, snapshot
  // restore) and covers the v4 checkpoint layout with its cost ledger; v7
  // marks the ziggurat NextGaussian, which re-drew every platform-side normal
  // (execution times, cold-start components, request resources) under the
  // same configuration; v8 marks requests bound whole at dispatch (no
  // completion event: slots free by end time, the record, resource and
  // fan-out draws and the keep-alive happen at bind time).
  uint64_t h = MixHash(HashString("scenario-fingerprint-v8"), seed);
  h = MixHash(h, static_cast<uint64_t>(days));
  h = MixDouble(h, scale);
  h = MixHash(h, record_requests ? 1 : 0);
  h = MixHash(h, static_cast<uint64_t>(trace_mode));
  h = MixHash(h, static_cast<uint64_t>(default_keep_alive));
  h = MixHash(h, static_cast<uint64_t>(cells_per_region));
  h = MixHash(h, workload_source().Fingerprint());
  h = MixHash(h, profiles.size());
  for (const auto& p : profiles) {
    h = MixProfile(h, p);
  }
  return h;
}

ScenarioConfig PaperScenario() { return ScenarioConfig(); }

ScenarioConfig SmallScenario() {
  ScenarioConfig config;
  config.days = 7;
  config.scale = 0.3;
  return config;
}

}  // namespace coldstart::core
