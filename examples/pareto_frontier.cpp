// Cost-vs-latency Pareto frontier over the full mitigation policy family —
// fig17's utility ratio turned into the complete trade-off study. Every
// candidate (baseline, each §5 mitigation, composites, and the SPES-style
// forecaster at several confidence/horizon settings) runs over the same
// scenario on a ParallelSweep; each becomes one point with cost = the
// resource-cost ledger's pod-seconds + warm-idle-seconds and latency = p99
// cold-start from the streaming histogram. The non-dominated frontier is
// rendered as a table and the full point set written as CSV.
//
// Every evaluation is a deterministic Experiment::Run: the table, frontier,
// and CSV are bit-identical at any thread count (serial == K=4 sharded).
//
// Usage: pareto_frontier [days] [scale] [cache_dir]
//   cache_dir (optional) persists per-point evaluations keyed by
//   (scenario, policy config) fingerprints — see core/frontier.h.
#include <cstdio>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/env.h"
#include "core/coldstart_lab.h"
#include "core/frontier.h"

using namespace coldstart;

int main(int argc, char** argv) {
  core::ScenarioConfig config;
  config.days = 3;
  config.scale = 0.2;
  if (argc > 1) {
    const auto days = ParseInt(argv[1]);
    if (!days || *days < 1) {
      std::fprintf(stderr, "pareto_frontier: bad days '%s'\n", argv[1]);
      return 2;
    }
    config.days = static_cast<int>(*days);
  }
  if (argc > 2) {
    const auto scale = ParseDouble(argv[2]);
    if (!scale || *scale <= 0) {
      std::fprintf(stderr, "pareto_frontier: bad scale '%s'\n", argv[2]);
      return 2;
    }
    config.scale = *scale;
  }
  const std::string cache_dir = argc > 3 ? argv[3] : std::string();

  const std::vector<core::FrontierCandidate> candidates =
      core::ShippedFrontierCandidates();

  std::printf(
      "Sweeping %zu policy candidates over %d days at %.2fx scale "
      "(%d threads)...\n\n",
      candidates.size(), config.days, config.scale,
      core::ParallelSweep::DefaultThreads());

  const core::FrontierResult result =
      core::RunFrontier(config, candidates, /*num_threads=*/0, cache_dir);

  TextTable all({"policy", "cold starts", "p50 (s)", "p99 (s)", "pod-hours",
                 "idle-hours", "cost (pod+idle h)", "frontier"});
  for (const core::FrontierPoint& p : result.points) {
    all.Row()
        .Cell(p.name)
        .Cell(p.cold_starts)
        .Cell(p.p50_cold_start_s, 3)
        .Cell(p.p99_cold_start_s, 2)
        .Cell(p.pod_seconds / 3600.0, 1)
        .Cell(p.warm_idle_seconds / 3600.0, 1)
        .Cell(p.cost() / 3600.0, 1)
        .Cell(std::string(p.on_frontier ? "*" : ""));
  }
  std::printf("%s\n", all.Render().c_str());

  std::printf("Non-dominated frontier (cost ascending, p99 descending):\n");
  TextTable frontier({"policy", "cost (pod+idle h)", "p99 (s)", "cold starts"});
  for (const size_t idx : result.frontier) {
    const core::FrontierPoint& p = result.points[idx];
    frontier.Row()
        .Cell(p.name)
        .Cell(p.cost() / 3600.0, 1)
        .Cell(p.p99_cold_start_s, 2)
        .Cell(p.cold_starts);
  }
  std::printf("%s\n", frontier.Render().c_str());

  const std::string csv_path = "pareto_frontier.csv";
  const std::string csv = core::FrontierCsv(result);
  AtomicFile csv_file(csv_path);
  if (csv_file.ok() && csv_file.Write(csv.data(), csv.size()) &&
      csv_file.Commit()) {
    std::printf("Wrote %zu points to %s\n", result.points.size(),
                csv_path.c_str());
  } else {
    std::fprintf(stderr, "pareto_frontier: failed to write %s\n",
                 csv_path.c_str());
    return 1;
  }
  return 0;
}
