// Ablation A4: cross-region cold-start scheduling.
//
// §5: the most popular regions have the longest cold starts while inter-region RTT is
// tens of milliseconds; offloading congested cold starts to quiet regions trades RTT
// for queueing. Metric: mean cold-start latency in the congested region (R1) and
// fleet-wide, plus the number of offloads, counted from the trace. Both scenario
// evaluations run concurrently on the ParallelSweep work queue (the cross-region run
// itself stays one shard — the policy is not region-local).
#include "bench/abl_util.h"

using namespace coldstart;

int main() {
  bench::PrintHeader("Ablation A4", "cross-region scheduling",
                     "RTT between developed regions is tens of ms, far below congested "
                     "cold-start times of seconds: offloading should pay off");
  const core::ScenarioConfig config = bench::AblationScenario();

  auto r1_mean = [](const core::ExperimentResult& result) {
    const auto n = result.visible_cold_starts[0];
    return n > 0 ? ToSeconds(result.cold_start_latency_sum_us[0]) / static_cast<double>(n)
                 : 0.0;
  };

  std::vector<double> r1_means(2, 0.0);
  int64_t offloads = 0;
  const std::vector<bench::AblationJob> jobs = {
      {"baseline (home region only)", nullptr,
       [&](const core::ExperimentResult& result, platform::PlatformPolicy*) {
         r1_means[0] = r1_mean(result);
       }},
      {"cross-region (async offload)",
       [] {
         policy::CrossRegionPolicy::Options opts;
         opts.home_pressure_threshold = 8;
         return std::make_unique<policy::CrossRegionPolicy>(opts);
       },
       [&](const core::ExperimentResult& result, platform::PlatformPolicy*) {
         r1_means[1] = r1_mean(result);
         // An offload is a cold start outside the function's home region.
         for (const trace::ColdStartRecord& c : result.store.cold_starts()) {
           offloads += c.region != result.population.functions[c.function_id].region;
         }
       }},
  };
  const std::vector<bench::AblationRow> rows = bench::RunAblationSweep(config, jobs);

  bench::PrintRows(rows);
  std::printf("\nR1 mean cold start: baseline %.2fs vs cross-region %.2fs; offloads: %lld\n",
              r1_means[0], r1_means[1], static_cast<long long>(offloads));
  return 0;
}
