// Ablation A5: predictive resource-pool sizing.
//
// §5 "Resource pool prediction": pools too small force from-scratch creations (slow);
// pools too large waste reserved capacity. Compare the static baseline against the
// three forecasters on pool misses and allocation latency. The four scenario
// evaluations run concurrently on the ParallelSweep work queue.
#include "bench/abl_util.h"

using namespace coldstart;

namespace {

double MeanAllocSeconds(const trace::TraceStore& store) {
  double sum = 0;
  size_t n = 0;
  for (const auto& c : store.cold_starts()) {
    sum += ToSeconds(c.pod_alloc_us);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

int main() {
  bench::PrintHeader("Ablation A5", "resource pool prediction",
                     "predictable per-config pod demand allows maintaining just enough "
                     "reserved pods without overallocation");
  const core::ScenarioConfig config = bench::AblationScenario();
  using Kind = policy::SeriesPredictor::Kind;
  const Kind kinds[] = {Kind::kMovingAverage, Kind::kSeasonalNaive, Kind::kHoltWinters};

  std::vector<double> alloc_means(4, 0.0);
  std::vector<bench::AblationJob> jobs;
  jobs.push_back({"static pools (baseline)", nullptr,
                  [&alloc_means](const core::ExperimentResult& result,
                                 platform::PlatformPolicy*) {
                    alloc_means[0] = MeanAllocSeconds(result.store);
                  }});
  for (size_t i = 0; i < 3; ++i) {
    const Kind kind = kinds[i];
    jobs.push_back({policy::SeriesPredictor::ForPools(kind).name(),
                    [kind] {
                      policy::PoolPredictionPolicy::Options opts;
                      opts.predictor = kind;
                      return std::make_unique<policy::PoolPredictionPolicy>(opts);
                    },
                    [&alloc_means, i](const core::ExperimentResult& result,
                                      platform::PlatformPolicy*) {
                      alloc_means[i + 1] = MeanAllocSeconds(result.store);
                    }});
  }
  const std::vector<bench::AblationRow> rows = bench::RunAblationSweep(config, jobs);

  bench::PrintRows(rows);
  std::printf("\nmean pod allocation time (s):");
  for (size_t i = 0; i < alloc_means.size(); ++i) {
    std::printf(" %s=%.3f", rows[i].name.c_str(), alloc_means[i]);
  }
  std::printf("\n");
  return 0;
}
