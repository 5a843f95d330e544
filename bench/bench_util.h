// Shared helpers for the figure/table reproduction harnesses.
//
// Every figXX/tabXX binary loads the same cached paper scenario (31 days, 5 regions,
// seed 42); the first binary to run simulates it (~10 s) and the rest load the binary
// cache. PrintHeader standardizes the "what the paper reports vs. what we measure"
// preamble each driver listed in docs/paper-map.md prints.
#ifndef COLDSTART_BENCH_BENCH_UTIL_H_
#define COLDSTART_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

#include "core/coldstart_lab.h"

namespace coldstart::bench {

inline core::ExperimentResult LoadPaperTrace() {
  core::Experiment experiment(core::PaperScenario());
  core::ExperimentResult result =
      experiment.RunCached(core::Experiment::DefaultCacheDir());
  std::printf("[trace] %zu requests, %zu cold starts, %zu pods, %zu functions%s\n\n",
              result.store.requests().size(), result.store.cold_starts().size(),
              result.store.pods().size(), result.store.functions().size(),
              result.from_cache ? " (from cache)" : " (fresh simulation)");
  return result;
}

// A reduced scenario for the policy ablations (policies cannot reuse the cache).
inline core::ScenarioConfig AblationScenario() {
  core::ScenarioConfig config;
  config.days = 10;
  config.scale = 0.5;
  config.record_requests = false;  // Ablation metrics come from cold starts + pods.
  return config;
}

inline void PrintHeader(const std::string& experiment_id, const std::string& title,
                        const std::string& paper_claim) {
  std::printf("=== %s: %s ===\n", experiment_id.c_str(), title.c_str());
  std::printf("paper: %s\n\n", paper_claim.c_str());
}

// Total pod-seconds (resource cost proxy) per region over the trace.
inline double PodSeconds(const trace::TraceStore& store, int region) {
  double total = 0;
  for (const auto& p : store.pods()) {
    if (region >= 0 && static_cast<int>(p.region) != region) {
      continue;
    }
    total += ToSeconds(p.death_time - p.cold_start_begin);
  }
  return total;
}

}  // namespace coldstart::bench

#endif  // COLDSTART_BENCH_BENCH_UTIL_H_
