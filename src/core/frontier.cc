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

namespace coldstart::core {
namespace {

constexpr uint64_t kFrontierFileMagic = 0x31765F746E726663ull;  // "cfrnt_v1".

std::string PointPath(const std::string& cache_dir, uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx",
                static_cast<unsigned long long>(key));
  return cache_dir + "/frontier_" + name + ".bin";
}

// Metric payload only — name/from_cache/on_frontier are run-local.
void SavePointPayload(ByteWriter& w, uint64_t key, const FrontierPoint& p) {
  w.U64(key);
  w.I64(p.cold_starts);
  w.U64(p.requests);
  w.F64(p.p50_cold_start_s);
  w.F64(p.p99_cold_start_s);
  w.F64(p.pod_seconds);
  w.F64(p.warm_idle_seconds);
}

bool RestorePointPayload(ByteReader& r, uint64_t key, FrontierPoint* p) {
  if (r.U64() != key) {
    return false;
  }
  p->cold_starts = r.I64();
  p->requests = r.U64();
  p->p50_cold_start_s = r.F64();
  p->p99_cold_start_s = r.F64();
  p->pod_seconds = r.F64();
  p->warm_idle_seconds = r.F64();
  return r.AtEnd();
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
  ByteReader r(payload);
  return RestorePointPayload(r, key, p);
}

void StoreCachedPoint(const std::string& cache_dir, uint64_t key,
                      const FrontierPoint& p) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  ByteWriter w;
  SavePointPayload(w, key, p);
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

}  // namespace coldstart::core
