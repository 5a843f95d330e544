#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "analysis/pareto.h"
#include "checkpoint/checkpoint.h"
#include "common/byte_serde.h"
#include "common/check.h"
#include "common/rng.h"
#include "policy/composite.h"
#include "policy/forecast.h"
#include "policy/keepalive.h"
#include "policy/peak_shaving.h"
#include "policy/pool_prediction.h"
#include "policy/prewarm.h"
#include "policy/provisioned.h"
#include "policy/workflow_prewarm.h"
#include "trace/streaming_aggregates.h"

namespace coldbench {

using namespace coldstart;

namespace {

// Load scale and run length of each workload. One repetition takes 0.3 to
// 1.5 s of wall time on a 4-vCPU x86 VM, so a 25 s run summarizes 15 to 80
// repetitions. The horizons are long enough that a run's request
// count moves by about ±2% across seeds; a 2-day sweep moved it by ±9%.
constexpr double kMonthScale = 0.1;
constexpr uint32_t kMonthCells = 4;
constexpr int kSweepDays = 6;
constexpr double kSweepScale = 0.05;
constexpr int kResumeDays = 8;
constexpr double kResumeScale = 0.15;
constexpr int kShardedThreads = 4;

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
};

void HashCounters(const core::ExperimentResult& r, Fnv& f) {
  for (const auto* v : {&r.visible_cold_starts, &r.prewarm_spawns,
                        &r.delayed_allocations, &r.scratch_allocations,
                        &r.cold_start_latency_sum_us}) {
    f.U64(v->size());
    f.Bytes(v->data(), v->size() * sizeof(int64_t));
  }
  ByteWriter w;
  r.cost_ledger.SaveState(w);
  f.Bytes(w.data().data(), w.data().size());
}

core::FrontierCandidate Forecast(const std::string& name, double min_confidence,
                                 SimDuration horizon) {
  policy::ForecastPrewarmPolicy::Options options;
  options.forecaster.min_confidence = min_confidence;
  options.max_horizon = horizon;
  return {name,
          [options] { return std::make_unique<policy::ForecastPrewarmPolicy>(options); },
          options.Fingerprint()};
}

template <typename Policy>
core::FrontierCandidate Plain(const std::string& name) {
  return {name, [] { return std::make_unique<Policy>(); }, HashString(name)};
}

// The synthetic generator with its arrival RNG seeded by the benchmark's
// --seed. The population (and the platform's own RNG) keep the scenario's
// seed, so every benchmark seed simulates the same deployed functions under a
// different traffic realization: the work per run barely depends on the seed,
// while the heavy-tailed popularity draw of a fresh population would move a
// run's request count by ±20%.
class TrafficSeedSource final : public workload::WorkloadSource {
 public:
  explicit TrafficSeedSource(uint64_t traffic_seed) : seed_(traffic_seed) {}

  const char* name() const override { return "synthetic:traffic-seed"; }
  uint64_t Fingerprint() const override {
    return MixHash(workload::DefaultSyntheticSource().Fingerprint(), seed_);
  }
  std::unique_ptr<workload::ArrivalStream> OpenStream(
      const workload::Population& pop, const std::vector<workload::RegionProfile>& profiles,
      const workload::Calendar& calendar, uint64_t /*seed*/,
      std::optional<trace::RegionId> region,
      std::optional<workload::CellSlice> cell_slice) const override {
    return workload::DefaultSyntheticSource().OpenStream(pop, profiles, calendar, seed_,
                                                         region, cell_slice);
  }

 private:
  uint64_t seed_;
};

int64_t Sum(const std::vector<int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), int64_t{0});
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const Workload w : {Workload::kMonthSerial, Workload::kMonthSharded,
                           Workload::kPolicySweep, Workload::kFullTraceResume}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kMonthSerial:
      return "month_serial";
    case Workload::kMonthSharded:
      return "month_sharded";
    case Workload::kPolicySweep:
      return "policy_sweep";
    case Workload::kFullTraceResume:
      return "full_trace_resume";
  }
  return "?";
}

core::ScenarioConfig ScenarioFor(Workload w, uint64_t seed) {
  core::ScenarioConfig config = core::PaperScenario();
  config.workload = std::make_shared<const TrafficSeedSource>(seed);
  config.record_requests = true;
  switch (w) {
    case Workload::kMonthSerial:
    case Workload::kMonthSharded:
      config.scale = kMonthScale;
      config.cells_per_region = kMonthCells;
      config.trace_mode = core::TraceMode::kStreaming;
      break;
    case Workload::kPolicySweep:
      config.days = kSweepDays;
      config.scale = kSweepScale;
      config.trace_mode = core::TraceMode::kStreaming;
      break;
    case Workload::kFullTraceResume:
      config.days = kResumeDays;
      config.scale = kResumeScale;
      config.trace_mode = core::TraceMode::kFull;
      break;
  }
  return config;
}

int ThreadsFor(Workload w) {
  if (w != Workload::kMonthSharded) {
    return 1;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kShardedThreads);
}

std::vector<core::FrontierCandidate> SweepCandidates() {
  std::vector<core::FrontierCandidate> c;
  c.push_back({"baseline", nullptr, 0});
  c.push_back(Plain<policy::DynamicKeepAlivePolicy>("keepalive-dynamic"));
  c.push_back(Plain<policy::ProfilePrewarmPolicy>("prewarm-profile"));
  c.push_back(Plain<policy::WorkflowPrewarmPolicy>("workflow-prewarm"));
  c.push_back(Plain<policy::ProvisionedConcurrencyPolicy>("provisioned"));
  c.push_back(Plain<policy::PeakShavingPolicy>("peak-shaving"));
  c.push_back(Plain<policy::PoolPredictionPolicy>("pool-prediction"));
  c.push_back(Forecast("forecast-c50-h6h", 0.5, 6 * kHour));
  c.push_back(Forecast("forecast-c70-h12h", 0.7, 12 * kHour));
  c.push_back(Forecast("forecast-c90-h24h", 0.9, 24 * kHour));
  const policy::ForecastPrewarmPolicy::Options options;
  c.push_back({"forecast+workflow",
               [options] {
                 auto combo = std::make_unique<policy::CompositePolicy>();
                 combo->Add(std::make_unique<policy::ForecastPrewarmPolicy>(options))
                     .Add(std::make_unique<policy::WorkflowPrewarmPolicy>());
                 return combo;
               },
               MixHash(options.Fingerprint(), HashString("forecast+workflow"))});
  return c;
}

uint64_t RunDigest(const core::ExperimentResult& result) {
  Fnv f;
  if (result.mode == core::TraceMode::kStreaming) {
    ByteWriter w;
    result.streaming.SaveState(w);
    f.Bytes(w.data().data(), w.data().size());
  } else {
    f.U64(trace::Digest(result.store));
  }
  HashCounters(result, f);
  return f.h;
}

uint64_t PointDigest(const core::FrontierPoint& p) {
  Fnv f;
  f.Bytes(p.name.data(), p.name.size());
  f.U64(static_cast<uint64_t>(p.cold_starts));
  f.U64(p.requests);
  f.F64(p.p50_cold_start_s);
  f.F64(p.p99_cold_start_s);
  f.F64(p.pod_seconds);
  f.F64(p.warm_idle_seconds);
  f.U64(p.on_frontier ? 1 : 0);
  return f.h;
}

std::vector<std::string> ConservationFailures(const core::ExperimentResult& result) {
  std::vector<std::string> failed;
  const trace::StreamingAggregates folded =
      result.mode == core::TraceMode::kStreaming
          ? trace::StreamingAggregates()
          : trace::AggregatesFromStore(result.store);
  const trace::StreamingAggregates& agg =
      result.mode == core::TraceMode::kStreaming ? result.streaming : folded;
  const trace::StreamCounters totals = agg.Totals();
  const trace::RegionCostRecord ledger = result.cost_ledger.TotalRecord();
  auto expect = [&](bool ok, const char* name) {
    if (!ok) {
      failed.emplace_back(name);
    }
  };
  expect(totals.requests > 0, "requests>0");
  // Only user-visible cold starts emit a cold-start record.
  expect(totals.cold_starts == static_cast<uint64_t>(Sum(result.visible_cold_starts)),
         "cold_start_records==visible_cold_starts");
  expect(totals.cold_start_latency_sum_us ==
             static_cast<uint64_t>(Sum(result.cold_start_latency_sum_us)),
         "cold_start_latency_sum");
  // Every pod (visible or prewarmed cold start) dies or is flushed at Finalize.
  expect(totals.pods == totals.cold_starts +
                            static_cast<uint64_t>(Sum(result.prewarm_spawns)),
         "pods==cold_starts+prewarm_spawns");
  // Every request is served by exactly one pod.
  expect(totals.pod_requests_served == totals.requests, "requests_served==requests");
  expect(ledger.pod_us == static_cast<__int128>(totals.pod_lifetime_sum_us),
         "ledger_pod_us==sum_pod_lifetimes");
  expect(ledger.warm_idle_us <= ledger.pod_us, "warm_idle<=pod_us");
  // Pool misses are a subset of from-scratch creations (custom images add more).
  expect(ledger.scratch_creations >= Sum(result.scratch_allocations),
         "scratch_creations>=pool_misses");
  if (result.mode == core::TraceMode::kStreaming) {
    const trace::RegionCostRecord sunk = agg.TotalCost();
    expect(sunk.pod_us == ledger.pod_us && sunk.warm_idle_us == ledger.warm_idle_us &&
               sunk.scratch_creations == ledger.scratch_creations,
           "sink_cost==ledger");
  }
  return failed;
}

core::FrontierPoint PointFromRun(const std::string& name,
                                 const core::ExperimentResult& run) {
  core::FrontierPoint point;
  point.name = name;
  point.cold_starts = Sum(run.visible_cold_starts);
  point.requests = run.streaming.Totals().requests;
  const LogHistogram hist = run.streaming.MergedColdStartHist();
  if (hist.total_count() > 0) {
    point.p50_cold_start_s = hist.Quantile(0.5);
    point.p99_cold_start_s = hist.Quantile(0.99);
  }
  const trace::RegionCostRecord cost = run.cost_ledger.TotalRecord();
  point.pod_seconds = cost.pod_seconds();
  point.warm_idle_seconds = cost.warm_idle_seconds();
  return point;
}

void MarkFrontier(core::FrontierResult* result) {
  std::vector<analysis::ParetoPoint> points;
  for (const core::FrontierPoint& p : result->points) {
    points.push_back({p.cost(), p.p99_cold_start_s});
  }
  result->frontier = analysis::ParetoFrontier(points);
  for (const size_t idx : result->frontier) {
    result->points[idx].on_frontier = true;
  }
}

bool FrontierIsMonotone(const core::FrontierResult& result) {
  size_t flagged = 0;
  for (const core::FrontierPoint& p : result.points) {
    flagged += p.on_frontier ? 1 : 0;
  }
  if (result.frontier.empty() || flagged != result.frontier.size()) {
    return false;
  }
  for (size_t i = 0; i < result.frontier.size(); ++i) {
    const size_t idx = result.frontier[i];
    if (idx >= result.points.size() || !result.points[idx].on_frontier) {
      return false;
    }
    if (i > 0) {
      const core::FrontierPoint& prev = result.points[result.frontier[i - 1]];
      const core::FrontierPoint& cur = result.points[idx];
      if (!(cur.cost() > prev.cost() && cur.p99_cold_start_s < prev.p99_cold_start_s)) {
        return false;
      }
    }
  }
  return true;
}

int MidDay(const core::ScenarioConfig& config) { return std::max(1, config.days / 2); }

core::ExperimentResult RunCheckpointedResume(const core::ScenarioConfig& config,
                                             const std::string& dir, CommitLog* log) {
  COLDSTART_CHECK(config.days >= 2);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const int mid = MidDay(config);
  const double start = NowSeconds();
  std::atomic<bool> stop{mid == 1};
  core::CheckpointPolicy checkpoint;
  checkpoint.every_n_days = 1;
  checkpoint.dir = dir;
  checkpoint.on_checkpoint = [&](int64_t day, uint32_t shard) {
    log->days.push_back(day);
    log->at_s.push_back(NowSeconds() - start);
    const uintmax_t bytes = std::filesystem::file_size(
        dir + "/" + checkpoint::CheckpointFileName(day, shard), ec);
    log->bytes += ec ? 0 : bytes;
    if (day + 1 == mid) {
      stop.store(true, std::memory_order_relaxed);
    }
  };
  checkpoint.stop = &stop;
  const core::Experiment experiment(config);
  const core::ExperimentResult halted = experiment.Run(nullptr, 1, &checkpoint);
  COLDSTART_CHECK_EQ(halted.interrupted_at_day, mid);
  checkpoint.stop = nullptr;
  log->resume_called_s = NowSeconds() - start;
  return experiment.ResumeFrom(dir, nullptr, 1, &checkpoint);
}

}  // namespace coldbench
