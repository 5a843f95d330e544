// Cost-vs-latency frontier driver: evaluate a set of mitigation policy
// candidates over one scenario and compute the non-dominated trade-off
// frontier (analysis/pareto.h). This generalizes fig17's single utility
// ratio into the full study: every candidate becomes one (cost, p99) point
// with cost = the resource-cost ledger's pod-seconds + warm-idle-seconds and
// p99 from the streaming cold-start histogram.
//
// Candidates run concurrently on a ParallelSweep; each evaluation is a
// deterministic Experiment::Run, so the points — and the frontier — are
// bit-identical at any thread count (serial == region-sharded == sub-region
// K=4, same contract as everything else in core/).
//
// Point cache: with a cache_dir, each evaluated point persists keyed by
// (scenario fingerprint, candidate name, policy fingerprint). A forecaster
// (or any policy) config change changes the key and forces re-evaluation —
// the cache can never serve a stale configuration (tests/frontier_test.cc).
#ifndef COLDSTART_CORE_FRONTIER_H_
#define COLDSTART_CORE_FRONTIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"

namespace coldstart::core {

struct FrontierCandidate {
  std::string name;
  // Factory (called once per evaluation, inside the sweep job); null = the
  // unmitigated baseline.
  std::function<std::unique_ptr<platform::PlatformPolicy>()> make_policy;
  // Stable hash of the policy's configuration (e.g.
  // ForecastPrewarmPolicy::Options::Fingerprint()); part of the point-cache
  // key so config changes invalidate cached evaluations.
  uint64_t policy_fingerprint = 0;
};

struct FrontierPoint {
  std::string name;
  int64_t cold_starts = 0;
  uint64_t requests = 0;
  double p50_cold_start_s = 0;
  double p99_cold_start_s = 0;
  // Ledger-derived cost axis (trace::RegionCostRecord totals).
  double pod_seconds = 0;
  double warm_idle_seconds = 0;
  bool from_cache = false;
  bool on_frontier = false;

  double cost() const { return pod_seconds + warm_idle_seconds; }
};

struct FrontierResult {
  std::vector<FrontierPoint> points;  // One per candidate, candidate order.
  // Indices into `points`, cost-ascending; strictly monotone (cost up =>
  // p99 down) by the ParetoFrontier contract.
  std::vector<size_t> frontier;
};

// Point-cache key for (scenario, candidate). Exposed for the freshness test:
// any change to the scenario fingerprint, the candidate name, or the policy
// fingerprint must change the key.
uint64_t FrontierPointKey(const ScenarioConfig& config,
                          const FrontierCandidate& candidate);

// Evaluates every candidate over `config` (forced to streaming trace mode)
// and computes the frontier. num_threads: 0 = default pool; the sweep splits
// it across candidates and each experiment's region shards. cache_dir: ""
// disables the point cache.
FrontierResult RunFrontier(const ScenarioConfig& config,
                           const std::vector<FrontierCandidate>& candidates,
                           int num_threads = 0,
                           const std::string& cache_dir = std::string());

// The frontier study as CSV (one row per point, frontier flag included) —
// what pareto_frontier writes next to its report table.
std::string FrontierCsv(const FrontierResult& result);

// The candidates pareto_frontier sweeps (and tests/golden/policy_frontier.golden
// pins): the baseline, every §5 mitigation at its defaults, the classic
// composite, the forecaster at three confidence/horizon settings and
// forecast+workflow.
std::vector<FrontierCandidate> ShippedFrontierCandidates();

}  // namespace coldstart::core

#endif  // COLDSTART_CORE_FRONTIER_H_
