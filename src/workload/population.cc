#include "workload/population.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/distributions.h"
#include "trace/records.h"

namespace coldstart::workload {

namespace {

using stats::BoundedParetoParams;
using stats::CategoricalSampler;
using trace::FunctionId;
using trace::ResourceConfig;
using trace::Runtime;
using trace::Trigger;

// Expands a condensed trigger choice to a concrete raw trigger.
Trigger RawTriggerFor(TriggerChoice choice, Rng& rng) {
  switch (choice) {
    case TriggerChoice::kApigS:
      return Trigger::kApigSync;
    case TriggerChoice::kTimer:
      return Trigger::kTimer;
    case TriggerChoice::kObs:
      return Trigger::kObs;
    case TriggerChoice::kWorkflowS:
      return Trigger::kWorkflowSync;
    case TriggerChoice::kOtherAsync: {
      static constexpr Trigger kOtherAsyncTriggers[] = {
          Trigger::kCts,  Trigger::kDis,   Trigger::kLts,
          Trigger::kSmn,  Trigger::kKafka, Trigger::kApigAsync,
          Trigger::kWorkflowAsync,
      };
      return kOtherAsyncTriggers[rng.NextBounded(std::size(kOtherAsyncTriggers))];
    }
    case TriggerChoice::kOtherSync:
      return Trigger::kKafkaSync;
  }
  return Trigger::kUnknown;
}

SimDuration SampleTimerPeriod(const RegionProfile& profile, Rng& rng) {
  double total = 0;
  for (const auto& [period, w] : profile.timer_period_weights) {
    total += w;
  }
  double u = rng.NextDouble() * total;
  for (const auto& [period, w] : profile.timer_period_weights) {
    u -= w;
    if (u <= 0) {
      return period;
    }
  }
  return profile.timer_period_weights.back().first;
}

// A small share of functions have no runtime/trigger metadata logged (the paper's
// 'unknown' slices). Tracked here so the generator produces them deliberately.
constexpr double kUnloggedTriggerFraction = 0.04;

}  // namespace

Population GeneratePopulation(const std::vector<RegionProfile>& profiles, uint64_t seed) {
  Population pop;
  Rng root(MixHash(seed, HashString("population")));

  for (const auto& profile : profiles) {
    pop.region_begin.push_back(static_cast<uint32_t>(pop.functions.size()));
    Rng rng = root.ForkStream(static_cast<uint64_t>(profile.region) + 1);

    const CategoricalSampler runtime_sampler(
        {profile.runtime_weights.begin(), profile.runtime_weights.end()});
    const CategoricalSampler config_sampler(
        {profile.config_weights.begin(), profile.config_weights.end()});
    std::vector<CategoricalSampler> trigger_samplers;
    trigger_samplers.reserve(trace::kNumRuntimes);
    for (int r = 0; r < trace::kNumRuntimes; ++r) {
      const auto& row = profile.trigger_given_runtime[static_cast<size_t>(r)];
      trigger_samplers.emplace_back(std::vector<double>{row.begin(), row.end()});
    }

    // --- Users: geometric tail over "extra" functions beyond the first. ---
    // Assign each function an owner as we go: start a new user, give it 1 function with
    // probability single_function_user_fraction, otherwise 1 + Geometric.
    std::vector<uint32_t> owner_of;  // Per function in this region.
    owner_of.reserve(static_cast<size_t>(profile.num_functions));
    int remaining = profile.num_functions;
    while (remaining > 0) {
      const uint32_t user = pop.num_users++;
      int count = 1;
      if (!rng.NextBool(profile.single_function_user_fraction)) {
        // Geometric with mean ~5 extra functions, capped.
        count += 1 + static_cast<int>(rng.NextExponential(1.0 / 4.0));
        count = std::min({count, profile.max_functions_per_user, remaining});
      }
      for (int i = 0; i < count && remaining > 0; ++i, --remaining) {
        owner_of.push_back(user);
      }
    }

    const BoundedParetoParams popularity{profile.popularity_alpha,
                                         profile.popularity_min_per_day,
                                         profile.popularity_max_per_day};

    std::vector<FunctionId> workflow_children;
    std::vector<FunctionId> root_candidates;  // Potential workflow parents.

    for (int i = 0; i < profile.num_functions; ++i) {
      FunctionSpec f;
      f.id = static_cast<FunctionId>(pop.functions.size());
      f.user = owner_of[static_cast<size_t>(i)];
      f.region = profile.region;
      f.runtime = static_cast<Runtime>(runtime_sampler.Sample(rng));
      if (rng.NextBool(kUnloggedTriggerFraction)) {
        f.primary_trigger = Trigger::kUnknown;
      } else {
        const auto choice = static_cast<TriggerChoice>(
            trigger_samplers[static_cast<size_t>(f.runtime)].Sample(rng));
        f.primary_trigger = RawTriggerFor(choice, rng);
      }
      f.trigger_mask = trace::TriggerBit(f.primary_trigger);
      // APIG-S + TIMER-A is the most common multi-trigger combination (13% of
      // functions, §3.3); model it as APIG-S functions gaining a timer bit.
      if (f.primary_trigger == Trigger::kApigSync && rng.NextBool(0.35)) {
        f.trigger_mask |= trace::TriggerBit(Trigger::kTimer);
      }

      f.config = static_cast<ResourceConfig>(config_sampler.Sample(rng));
      // Heavier runtimes skew to bigger pods (drives Fig. 13's code/dep size effect).
      if ((f.runtime == Runtime::kJava || f.runtime == Runtime::kCustom ||
           f.runtime == Runtime::kGo1x) &&
          rng.NextBool(0.45)) {
        const int upgraded = std::min(static_cast<int>(f.config) + 1,
                                      trace::kNumResourceConfigs - 1);
        f.config = static_cast<ResourceConfig>(upgraded);
      }
      if (f.runtime == Runtime::kCustom) {
        // Container-image workloads ship their own runtime and run memory-hungry batch
        // jobs: never below 600m/512MB. This is also what places the slowest cold
        // starts in the *large* pool class (Fig. 13's small/large gap).
        f.config = std::max(f.config, ResourceConfig::k600m512);
      }

      // --- Arrival process. ---
      const bool is_workflow = f.primary_trigger == Trigger::kWorkflowSync ||
                               f.primary_trigger == Trigger::kWorkflowAsync;
      if (f.primary_trigger == Trigger::kTimer) {
        f.kind = ArrivalKind::kTimer;
        f.timer_period = SampleTimerPeriod(profile, rng);
        f.base_rate_per_day = static_cast<double>(kDay) / static_cast<double>(f.timer_period);
        f.diurnal_exponent = 0.0;
      } else if (is_workflow) {
        f.kind = ArrivalKind::kWorkflowChild;
        workflow_children.push_back(f.id);
      } else {
        f.kind = ArrivalKind::kModulatedPoisson;
        f.base_rate_per_day = popularity.Sample(rng);
        f.diurnal_exponent =
            rng.Uniform(profile.diurnal_exponent_min, profile.diurnal_exponent_max);
        if (f.primary_trigger == Trigger::kObs) {
          // OBS functions process object-storage event streams in minute-scale batch
          // executions. Hot feeds run above the keep-alive threshold all day: their
          // long executions overlap, so they hold standing pod fleets (the OBS pod
          // share of Fig. 8d). Custom-image feeds additionally die off at night and
          // scale up in bursts, and every one of their pods is built from scratch --
          // which makes Custom the dominant source of (slow) OBS cold starts and puts
          // the OBS median at ~10 s in Fig. 16.
          if (rng.NextBool(profile.obs_hot_fraction)) {
            if (f.runtime == Runtime::kCustom) {
              f.base_rate_per_day =
                  std::max(f.base_rate_per_day, rng.Uniform(1440.0, 1800.0));
              f.diurnal_exponent = rng.Uniform(0.8, 1.2);
              f.burst_amplitude = rng.Uniform(3.0, 8.0);
              f.burst_prob_per_hour = rng.Uniform(0.03, 0.06);
              f.burst_mean_hours = rng.Uniform(1.5, 3.0);
            } else {
              f.base_rate_per_day =
                  std::max(f.base_rate_per_day, rng.Uniform(1800.0, 2880.0));
              f.diurnal_exponent = rng.Uniform(0.3, 0.9);
              f.burst_amplitude = 1.0;
              f.regular_arrivals = true;  // Steady object pipeline.
            }
          }
        }
        if (f.runtime == Runtime::kHttp && f.primary_trigger != Trigger::kObs) {
          // http functions are HTTP services. Hot ones see steady sub-minute traffic
          // (pods stay warm; cold starts only on redeploys/diurnal troughs), the rest
          // are sporadic internal endpoints. Neither sits in the dead zone where every
          // request would pay the ~10s server start.
          if (rng.NextBool(profile.http_hot_fraction)) {
            // Comfortably above the keep-alive threshold even at night, so the pod
            // stays warm (at 1/min exactly, half the gaps would cold-start).
            f.base_rate_per_day = std::max(f.base_rate_per_day, rng.Uniform(3400.0, 4800.0));
            f.diurnal_exponent = rng.Uniform(0.1, 0.4);
            f.burst_amplitude = 1.0;
            f.regular_arrivals = true;  // Load-balanced service traffic.
          } else {
            f.base_rate_per_day = std::min(f.base_rate_per_day, rng.Uniform(2.0, 20.0));
          }
        }
        if (f.runtime == Runtime::kGo1x) {
          // Go services in this fleet are batchy backends: long dense sessions with
          // quiet gaps. During a session the pod stays warm for the whole window, so
          // one cold start buys minutes-to-hours of useful lifetime (the high Go
          // utility ratios of Fig. 17a).
          f.diurnal_exponent = rng.Uniform(0.0, 0.3);
          f.base_rate_per_day = rng.Uniform(30.0, 120.0);
          f.burst_amplitude = rng.Uniform(30.0, 60.0);
          f.burst_prob_per_hour = rng.Uniform(0.05, 0.10);
          f.burst_mean_hours = rng.Uniform(1.0, 2.5);
        }
        if (f.runtime == Runtime::kJava && rng.NextBool(profile.java_regime_change_fraction)) {
          f.diurnal_onset = static_cast<SimTime>(profile.java_regime_change_day) * kDay;
          f.diurnal_exponent = std::max(f.diurnal_exponent, 1.2);
        }
        // Burst personality: moderately popular functions can have extreme
        // peak-to-trough ratios (Fig. 6a's >1000x tail).
        if (rng.NextBool(profile.bursty_function_fraction)) {
          const double amp = std::exp(std::log(profile.burst_amp_median) +
                                      profile.burst_amp_sigma * BoxMullerGaussian(rng));
          const bool moderate = f.base_rate_per_day >= 5 && f.base_rate_per_day <= 2000;
          f.burst_amplitude = std::clamp(amp, 1.5, moderate ? 3000.0 : 25.0);
          f.burst_prob_per_hour = rng.Uniform(0.004, 0.04);
          f.burst_mean_hours = rng.Uniform(1.0, 4.0);
        }
        if (f.base_rate_per_day >= 30) {
          root_candidates.push_back(f.id);
        }
      }

      // --- Execution profile. ---
      f.exec_median_us = 1e6 * std::exp(std::log(profile.exec_median_s) +
                                        profile.exec_median_sigma * BoxMullerGaussian(rng));
      f.exec_median_us = std::clamp(f.exec_median_us, 200.0, 300e6);
      f.exec_sigma = profile.exec_request_sigma;
      f.cpu_mean_cores = std::exp(std::log(profile.cpu_median_cores) +
                                  profile.cpu_sigma * BoxMullerGaussian(rng));
      f.cpu_mean_cores = std::clamp(
          f.cpu_mean_cores, 0.01, static_cast<double>(CpuMillicoresOf(f.config)) / 1000.0);
      f.mem_mean_kb = rng.Uniform(0.25, 0.8) * 1024.0 *
                      static_cast<double>(MemoryMbOf(f.config));

      // --- Package sizes. ---
      const RuntimeTraits& traits = TraitsOf(f.runtime);
      f.code_size_kb = static_cast<uint32_t>(std::clamp(
          std::exp(std::log(traits.code_size_median_kb) +
                   traits.code_size_sigma * BoxMullerGaussian(rng)),
          16.0, 512e3));
      if (rng.NextBool(traits.dep_probability)) {
        f.dep_size_kb = static_cast<uint32_t>(std::clamp(
            std::exp(std::log(traits.dep_size_median_kb) +
                     traits.dep_size_sigma * BoxMullerGaussian(rng)),
            128.0, 2048e3));
      }

      const double conc_draw = rng.NextDouble();
      f.pod_concurrency = conc_draw < 0.70 ? 1 : (conc_draw < 0.90 ? 4 : 10);
      // Very hot functions get high concurrency so pod counts stay realistic.
      if (f.base_rate_per_day > 1000 && f.kind == ArrivalKind::kModulatedPoisson) {
        f.pod_concurrency = std::max(f.pod_concurrency, 10);
      }
      if (f.primary_trigger == Trigger::kObs && f.kind == ArrivalKind::kModulatedPoisson) {
        // Batch jobs: tens-of-seconds executions. Custom images process one object per
        // pod (overlap multiplies pods -- and every pod is a slow scratch build);
        // managed runtimes absorb overlap with in-pod concurrency, so hot managed
        // feeds hold a couple of warm pods instead of cold-starting on every overlap.
        f.exec_median_us = std::clamp(20e6 * std::exp(0.8 * BoxMullerGaussian(rng)), 5e6, 120e6);
        const bool hot_managed =
            f.runtime != Runtime::kCustom && f.base_rate_per_day >= 1200;
        f.pod_concurrency = hot_managed ? 6 : 1;
      }

      f.single_cluster = rng.NextBool(profile.single_cluster_fraction);
      f.home_cluster = static_cast<trace::ClusterId>(rng.NextBounded(trace::kClustersPerRegion));

      pop.functions.push_back(std::move(f));
    }

    // --- Workflow wiring: attach each child to a root function in this region. ---
    for (const FunctionId child_id : workflow_children) {
      FunctionSpec& child = pop.functions[child_id];
      if (root_candidates.empty()) {
        // Tiny region with no eligible parents: degrade to a low-rate Poisson source.
        child.kind = ArrivalKind::kModulatedPoisson;
        child.base_rate_per_day = 2.0;
        child.diurnal_exponent = 1.0;
        continue;
      }
      const FunctionId parent_id =
          root_candidates[rng.NextBounded(root_candidates.size())];
      FunctionSpec& parent = pop.functions[parent_id];
      WorkflowEdge edge;
      edge.child = child_id;
      edge.probability = rng.Uniform(0.05, 0.5);
      // Downstream steps fire on a *filtered* subset of parent traffic (a bounded
      // number of chain activations per day); an uncapped edge probability on a hot
      // parent would otherwise put every child in the cold-start-per-request band at
      // thousands of requests/day.
      const double child_rate_cap = rng.Uniform(8.0, 60.0);
      edge.probability =
          std::min(edge.probability, child_rate_cap / parent.base_rate_per_day);
      parent.children.push_back(edge);
      child.base_rate_per_day = parent.base_rate_per_day * edge.probability;
      child.diurnal_exponent = parent.diurnal_exponent;
    }
  }
  pop.region_begin.push_back(static_cast<uint32_t>(pop.functions.size()));
  return pop;
}

}  // namespace coldstart::workload
