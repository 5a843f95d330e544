#include "core/frontier.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "analysis/pareto.h"
#include "common/byte_serde.h"
#include "common/check.h"
#include "common/framed_file.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/sweep.h"
#include "policy/composite.h"
#include "policy/forecast.h"
#include "policy/keepalive.h"
#include "policy/peak_shaving.h"
#include "policy/pool_prediction.h"
#include "policy/prewarm.h"
#include "policy/provisioned.h"
#include "policy/workflow_prewarm.h"

namespace coldstart::core {
namespace {

constexpr uint64_t kFrontierFileMagic = 0x31765F746E726663ull;  // "cfrnt_v1".

template <typename Policy>
FrontierCandidate Plain(const std::string& name) {
  return {name, [] { return std::make_unique<Policy>(); }, HashString(name)};
}

// Default-configured policies in one CompositePolicy, in priority order.
template <typename... Policies>
FrontierCandidate Composite(const std::string& name, uint64_t fingerprint) {
  return {name,
          [] {
            auto combo = std::make_unique<policy::CompositePolicy>();
            (combo->Add(std::make_unique<Policies>()), ...);
            return combo;
          },
          fingerprint};
}

FrontierCandidate Forecast(const std::string& name, double min_confidence,
                           SimDuration horizon) {
  policy::ForecastPrewarmPolicy::Options options;
  options.forecaster.min_confidence = min_confidence;
  options.max_horizon = horizon;
  return {name,
          [options] { return std::make_unique<policy::ForecastPrewarmPolicy>(options); },
          options.Fingerprint()};
}

std::string PointPath(const std::string& cache_dir, uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx",
                static_cast<unsigned long long>(key));
  return cache_dir + "/frontier_" + name + ".bin";
}

// The point file's payload (common/byte_serde.h): the key, then the metrics
// only — name/from_cache/on_frontier are run-local.
template <class Ar, class Self>
void PointLayout(Ar& a, uint64_t& key, Self& p) {
  a.U64(key);
  a.I64(p.cold_starts);
  a.U64(p.requests);
  a.F64(p.p50_cold_start_s);
  a.F64(p.p99_cold_start_s);
  a.F64(p.pod_seconds);
  a.F64(p.warm_idle_seconds);
}

bool LoadCachedPoint(const std::string& cache_dir, uint64_t key,
                     FrontierPoint* p) {
  const std::string path = PointPath(cache_dir, key);
  std::string payload;
  const char* why = nullptr;
  const FrameStatus status =
      ReadFramedFile(path, kFrontierFileMagic, &payload, &why);
  if (status == FrameStatus::kCorrupt) {
    std::fprintf(stderr, "frontier cache: %s: %s — re-evaluating\n",
                 path.c_str(), why);
  }
  if (status != FrameStatus::kOk) {
    return false;
  }
  // Read into a copy, so a file of another key leaves the point untouched.
  ByteReader r(payload);
  uint64_t stored_key = 0;
  FrontierPoint cached = *p;
  PointLayout(r, stored_key, cached);
  if (stored_key != key || !r.AtEnd()) {
    return false;
  }
  *p = cached;
  return true;
}

void StoreCachedPoint(const std::string& cache_dir, uint64_t key,
                      const FrontierPoint& p) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  ByteWriter w;
  PointLayout(w, key, p);
  // Cache misses are always safe; never fail the run over a cache write.
  WriteFramedFile(PointPath(cache_dir, key), kFrontierFileMagic, w.data());
}

}  // namespace

uint64_t FrontierPointKey(const ScenarioConfig& config,
                          const FrontierCandidate& candidate) {
  uint64_t h = HashString("frontier-point-v2");
  h = MixHash(h, config.Fingerprint());
  h = MixHash(h, HashString(candidate.name));
  h = MixHash(h, candidate.policy_fingerprint);
  return h;
}

FrontierResult RunFrontier(const ScenarioConfig& config,
                           const std::vector<FrontierCandidate>& candidates,
                           int num_threads, const std::string& cache_dir) {
  // The frontier needs only aggregates: force the O(1)-memory sink so large
  // candidate sets do not hold one full trace per sweep job. Request records
  // stay on — the streaming sink folds them away, and they feed the request
  // counts and cold-start latency histograms the points are made of.
  ScenarioConfig scenario = config;
  scenario.trace_mode = TraceMode::kStreaming;
  scenario.record_requests = true;

  FrontierResult result;
  result.points.resize(candidates.size());

  ParallelSweep sweep(num_threads);
  const int inner_threads = std::max(
      1, sweep.num_threads() / static_cast<int>(std::max<size_t>(1, candidates.size())));
  for (size_t i = 0; i < candidates.size(); ++i) {
    sweep.Add([&, i] {
      const FrontierCandidate& candidate = candidates[i];
      FrontierPoint& point = result.points[i];
      point.name = candidate.name;
      const uint64_t key = FrontierPointKey(scenario, candidate);
      if (!cache_dir.empty() && LoadCachedPoint(cache_dir, key, &point)) {
        point.from_cache = true;
        return;
      }
      std::unique_ptr<platform::PlatformPolicy> policy =
          candidate.make_policy ? candidate.make_policy() : nullptr;
      const Experiment experiment(scenario);
      const ExperimentResult run = experiment.Run(policy.get(), inner_threads);
      point.cold_starts =
          std::accumulate(run.visible_cold_starts.begin(),
                          run.visible_cold_starts.end(), int64_t{0});
      point.requests = run.streaming.Totals().requests;
      const LogHistogram hist = run.streaming.MergedColdStartHist();
      if (hist.total_count() > 0) {
        point.p50_cold_start_s = hist.Quantile(0.5);
        point.p99_cold_start_s = hist.Quantile(0.99);
      }
      const trace::RegionCostRecord cost = run.cost_ledger.TotalRecord();
      point.pod_seconds = cost.pod_seconds();
      point.warm_idle_seconds = cost.warm_idle_seconds();
      if (!cache_dir.empty()) {
        StoreCachedPoint(cache_dir, key, point);
      }
    });
  }
  sweep.Run();

  std::vector<analysis::ParetoPoint> pareto_points;
  pareto_points.reserve(result.points.size());
  for (const FrontierPoint& p : result.points) {
    pareto_points.push_back({p.cost(), p.p99_cold_start_s});
  }
  result.frontier = analysis::ParetoFrontier(pareto_points);
  for (const size_t idx : result.frontier) {
    result.points[idx].on_frontier = true;
  }
  return result;
}

std::string FrontierCsv(const FrontierResult& result) {
  TextTable t({"policy", "cold_starts", "requests", "p50_cold_start_s",
               "p99_cold_start_s", "pod_seconds", "warm_idle_seconds", "cost",
               "on_frontier"});
  for (const FrontierPoint& p : result.points) {
    t.Row()
        .Cell(p.name)
        .Cell(p.cold_starts)
        .Cell(p.requests)
        .Cell(p.p50_cold_start_s, 4)
        .Cell(p.p99_cold_start_s, 4)
        .Cell(p.pod_seconds, 1)
        .Cell(p.warm_idle_seconds, 1)
        .Cell(p.cost(), 1)
        .Cell(std::string(p.on_frontier ? "1" : "0"));
  }
  return t.RenderCsv();
}

std::vector<FrontierCandidate> ShippedFrontierCandidates() {
  std::vector<FrontierCandidate> c;
  c.push_back({"baseline", nullptr, 0});
  c.push_back(Plain<policy::DynamicKeepAlivePolicy>("keepalive-dynamic"));
  c.push_back(Plain<policy::TimerAwarePrewarmPolicy>("prewarm-timer"));
  c.push_back(Plain<policy::ProfilePrewarmPolicy>("prewarm-profile"));
  c.push_back(Plain<policy::WorkflowPrewarmPolicy>("workflow-prewarm"));
  c.push_back(Plain<policy::ProvisionedConcurrencyPolicy>("provisioned"));
  c.push_back(Plain<policy::PeakShavingPolicy>("peak-shaving"));
  c.push_back(Plain<policy::PoolPredictionPolicy>("pool-prediction"));
  c.push_back(Composite<policy::TimerAwarePrewarmPolicy, policy::DynamicKeepAlivePolicy,
                        policy::WorkflowPrewarmPolicy, policy::PeakShavingPolicy>(
      "composite-classic", HashString("composite-classic")));
  c.push_back(Forecast("forecast-c50-h6h", 0.5, 6 * kHour));
  c.push_back(Forecast("forecast-c70-h12h", 0.7, 12 * kHour));
  c.push_back(Forecast("forecast-c90-h24h", 0.9, 24 * kHour));
  c.push_back(Composite<policy::ForecastPrewarmPolicy, policy::WorkflowPrewarmPolicy>(
      "forecast+workflow", MixHash(policy::ForecastPrewarmPolicy::Options().Fingerprint(),
                                   HashString("forecast+workflow"))));
  return c;
}

}  // namespace coldstart::core
