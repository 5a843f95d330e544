#include "traced.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/check.h"
#include "core/sweep.h"
#include "platform/platform.h"
#include "workload/function_cells.h"
#include "workload/population.h"
#include "workloads.h"

namespace coldbench {

using namespace coldstart;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer) : tracer_(tracer), layer_(layer) {
    if (tracer_ != nullptr) {
      tracer_->Begin();
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->End(layer_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_;
};

class TracedStream final : public workload::ArrivalStream {
 public:
  TracedStream(std::unique_ptr<workload::ArrivalStream> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool NextChunk(workload::ArrivalChunk* chunk) override {
    const double begin = NowSeconds();
    bool more = false;
    {
      const Scope scope(tracer_, kArrivals);
      more = inner_->NextChunk(chunk);
    }
    if (more) {
      tracer_->arrivals += chunk->events.size();
      tracer_->Keep("next_chunk day " + std::to_string(chunk->day), begin, NowSeconds());
    }
    return more;
  }
  bool SaveState(ByteWriter& w) const override { return inner_->SaveState(w); }
  bool RestoreState(ByteReader& r) override { return inner_->RestoreState(r); }

 private:
  std::unique_ptr<workload::ArrivalStream> inner_;
  Tracer* tracer_;
};

class TracedSink final : public trace::TraceSink {
 public:
  TracedSink(trace::TraceSink& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  void OnFunction(const trace::FunctionRecord& r) override {
    const Scope scope(tracer_, kSink);
    inner_.OnFunction(r);
  }
  void OnRequest(const trace::RequestRecord& r) override {
    const Scope scope(tracer_, kSink);
    inner_.OnRequest(r);
  }
  void OnColdStart(const trace::ColdStartRecord& r) override {
    const Scope scope(tracer_, kSink);
    inner_.OnColdStart(r);
  }
  void OnPodLifetime(const trace::PodLifetimeRecord& r) override {
    const Scope scope(tracer_, kSink);
    inner_.OnPodLifetime(r);
  }
  void OnHorizon(SimTime horizon) override {
    const Scope scope(tracer_, kSink);
    inner_.OnHorizon(horizon);
  }
  void OnRegionCost(const trace::RegionCostRecord& r) override {
    const Scope scope(tracer_, kSink);
    inner_.OnRegionCost(r);
  }

 private:
  trace::TraceSink& inner_;
  Tracer* tracer_;
};

// Forwards every hook, timing the per-event ones and the minute tick. Clones
// are traced too; the runner binds each clone to its shard's tracer.
class TracedPolicy final : public platform::PlatformPolicy {
 public:
  TracedPolicy(platform::PlatformPolicy* inner, std::unique_ptr<platform::PlatformPolicy> owned)
      : owned_(std::move(owned)), inner_(owned_ ? owned_.get() : inner) {}

  void Bind(Tracer* tracer) { tracer_ = tracer; }

  bool is_region_local() const override { return inner_->is_region_local(); }
  bool is_function_local() const override { return inner_->is_function_local(); }
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    std::unique_ptr<platform::PlatformPolicy> clone = inner_->CloneForShard();
    if (clone == nullptr) {
      return nullptr;
    }
    auto traced = std::make_unique<TracedPolicy>(nullptr, std::move(clone));
    traced->Bind(tracer_);
    return traced;
  }
  void AbsorbShardStats(const platform::PlatformPolicy& shard) override {
    inner_->AbsorbShardStats(*static_cast<const TracedPolicy&>(shard).inner_);
  }
  void OnAttach(platform::Platform& platform) override { inner_->OnAttach(platform); }
  SimDuration AdmissionDelay(const workload::FunctionSpec& spec, SimTime now,
                             const platform::RegionLoadState& load) override {
    const Scope scope(tracer_, kPolicyHook);
    return inner_->AdmissionDelay(spec, now, load);
  }
  SimDuration KeepAliveFor(const workload::FunctionSpec& spec, SimTime now) override {
    const Scope scope(tracer_, kPolicyHook);
    return inner_->KeepAliveFor(spec, now);
  }
  trace::RegionId RouteColdStart(const workload::FunctionSpec& spec, SimTime now) override {
    const Scope scope(tracer_, kPolicyHook);
    return inner_->RouteColdStart(spec, now);
  }
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override {
    const Scope scope(tracer_, kPolicyHook);
    inner_->OnArrival(spec, now);
  }
  void OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                   SimDuration total) override {
    const Scope scope(tracer_, kPolicyHook);
    inner_->OnColdStart(spec, now, total);
  }
  void OnParentRequestStart(const workload::FunctionSpec& parent, SimTime now) override {
    const Scope scope(tracer_, kPolicyHook);
    inner_->OnParentRequestStart(parent, now);
  }
  void OnMinuteTick(SimTime now) override {
    const Scope scope(tracer_, kPolicyTick);
    inner_->OnMinuteTick(now);
  }
  bool SavePolicyState(std::string* out) const override {
    return inner_->SavePolicyState(out);
  }
  bool RestorePolicyState(std::string_view blob) override {
    return inner_->RestorePolicyState(blob);
  }

 private:
  std::unique_ptr<platform::PlatformPolicy> owned_;
  platform::PlatformPolicy* inner_;
  Tracer* tracer_ = nullptr;
};

// One shard's outputs, folded into the result after the join.
struct ShardOutcome {
  trace::TraceStore store;
  trace::StreamingAggregates streaming;
  uint64_t events = 0;
  std::vector<int64_t> visible_cold_starts, prewarm_spawns, delayed_allocations,
      scratch_allocations, cold_start_latency_sum_us;
  platform::ResourceCostLedger cost_ledger;
};

void AddInto(std::vector<int64_t>& into, const std::vector<int64_t>& from) {
  for (size_t i = 0; i < from.size(); ++i) {
    into[i] += from[i];
  }
}

}  // namespace

void Tracer::Begin() {
  COLDSTART_CHECK(depth_ < kMaxDepth);
  stack_[depth_++] = {NowNs(), 0};
}

void Tracer::End(Layer layer) {
  COLDSTART_CHECK(depth_ > 0);
  const Frame frame = stack_[--depth_];
  const int64_t duration = NowNs() - frame.start_ns;
  self_ns_[layer] += duration - frame.child_ns;
  ++calls_[layer];
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += duration;
  }
}

void Tracer::Keep(std::string name, double begin_s, double end_s) {
  spans_.push_back({std::move(name), shard_, begin_s, end_s});
}

core::ExperimentResult RunShards(const core::ScenarioConfig& config, int threads,
                                 platform::PlatformPolicy* policy, bool traced,
                                 RunProfile* profile) {
  const double start = NowSeconds();
  profile->day_end_s.clear();
  const workload::Calendar calendar = config.MakeCalendar();
  const std::vector<workload::RegionProfile> profiles = config.ScaledProfiles();
  const size_t regions = profiles.size();
  const uint32_t cells = std::max<uint32_t>(config.cells_per_region, 1u);
  const bool streaming = config.trace_mode == core::TraceMode::kStreaming;
  const workload::Population population =
      workload::GeneratePopulation(profiles, config.seed);
  profile->population_s = NowSeconds() - start;
  std::shared_ptr<const std::vector<uint32_t>> function_cells;
  if (cells > 1) {
    function_cells = std::make_shared<const std::vector<uint32_t>>(
        workload::ComputeFunctionCells(population, cells));
  }

  // The shard planner of Experiment::Run: region shards, split into K cell
  // groups when the scenario has cells and the policy is function-local.
  std::unique_ptr<TracedPolicy> traced_prototype;
  platform::PlatformPolicy* prototype = policy;
  if (traced && policy != nullptr) {
    traced_prototype = std::make_unique<TracedPolicy>(policy, nullptr);
    prototype = traced_prototype.get();
  }
  const bool region_shardable =
      regions > 1 && (policy == nullptr || policy->is_region_local());
  const bool cell_shardable =
      cells > 1 && (policy == nullptr ||
                    (policy->is_region_local() && policy->is_function_local()));
  bool sharded = threads > 1 && (region_shardable || cell_shardable);
  uint32_t k = 1;
  if (sharded && cells > 1 && (policy == nullptr || policy->is_function_local())) {
    const auto want = static_cast<uint32_t>((static_cast<size_t>(threads) + regions - 1) /
                                            regions);
    k = std::min(cells, std::max<uint32_t>(want, 1u));
  }
  size_t num_shards = sharded ? regions * k : 1;
  std::vector<std::unique_ptr<platform::PlatformPolicy>> clones(num_shards);
  if (sharded && prototype != nullptr) {
    for (auto& clone : clones) {
      clone = prototype->CloneForShard();
      if (clone == nullptr) {
        sharded = false;
        k = 1;
        num_shards = 1;
        break;
      }
    }
  }

  std::vector<ShardOutcome> shards(num_shards);
  profile->shard_wall_s.assign(num_shards, 0);
  profile->tracers.clear();
  if (traced) {
    for (size_t s = 0; s < num_shards; ++s) {
      profile->tracers.emplace_back(static_cast<uint32_t>(s));
    }
  }
  core::ParallelSweep sweep(threads);
  for (size_t s = 0; s < num_shards; ++s) {
    sweep.Add([&, s] {
      const double shard_begin = NowSeconds();
      Tracer* tracer = traced ? &profile->tracers[s] : nullptr;
      ShardOutcome& out = shards[s];
      trace::TraceSink& base = streaming ? static_cast<trace::TraceSink&>(out.streaming)
                                         : static_cast<trace::TraceSink&>(out.store);
      std::optional<TracedSink> traced_sink;
      if (traced) {
        traced_sink.emplace(base, tracer);
      }
      trace::TraceSink& sink = traced ? static_cast<trace::TraceSink&>(*traced_sink) : base;
      platform::PlatformPolicy* shard_policy = sharded ? clones[s].get() : prototype;
      if (traced && shard_policy != nullptr) {
        static_cast<TracedPolicy*>(shard_policy)->Bind(tracer);
      }
      platform::Platform::Options options;
      options.seed = config.seed;
      options.record_requests = config.record_requests;
      options.default_keep_alive = config.default_keep_alive;
      options.cells_per_region = cells;
      options.function_cells = function_cells;
      sim::Simulator sim;
      platform::Platform platform(population, profiles, calendar, sim, sink, options,
                                  shard_policy);
      std::unique_ptr<workload::ArrivalStream> stream;
      if (sharded) {
        const auto region = static_cast<trace::RegionId>(s / k);
        const auto group = static_cast<uint32_t>(s % k);
        std::optional<workload::CellSlice> slice;
        if (k > 1) {
          slice = workload::CellSlice{function_cells, group * cells / k,
                                      (group + 1) * cells / k};
        }
        stream = config.workload_source().OpenStream(population, profiles, calendar,
                                                     config.seed, region, slice);
      } else {
        stream = config.workload_source().OpenStream(population, profiles, calendar,
                                                     config.seed);
      }
      if (traced) {
        stream = std::make_unique<TracedStream>(std::move(stream), tracer);
      }
      platform.AttachArrivalStream(std::move(stream));

      // Day-boundary splits, as a checkpointed run makes them (equivalent to
      // one RunUntil by the checkpoint contract in docs/determinism.md).
      const SimTime horizon = calendar.horizon();
      for (int64_t day = 1;; ++day) {
        const SimTime until = day * kDay < horizon ? day * kDay - 1 : horizon;
        const double begin = NowSeconds();
        {
          const Scope scope(tracer, kPlatform);
          sim.RunUntil(until);
        }
        const double end = NowSeconds();
        if (!sharded) {
          profile->day_end_s.push_back(end - start);
        }
        if (tracer != nullptr) {
          tracer->Keep("run_until day " + std::to_string(day - 1), begin, end);
        }
        if (until == horizon) {
          break;
        }
      }
      {
        const double begin = NowSeconds();
        {
          const Scope scope(tracer, kFinalize);
          platform.Finalize();
        }
        if (tracer != nullptr) {
          tracer->Keep("finalize", begin, NowSeconds());
        }
      }
      out.events = sim.events_processed();
      for (auto* v : {&out.visible_cold_starts, &out.prewarm_spawns,
                      &out.delayed_allocations, &out.scratch_allocations,
                      &out.cold_start_latency_sum_us}) {
        v->assign(regions, 0);
      }
      for (size_t r = 0; r < regions; ++r) {
        const auto region = static_cast<trace::RegionId>(r);
        out.visible_cold_starts[r] = platform.cold_starts(region);
        out.prewarm_spawns[r] = platform.prewarm_spawns(region);
        out.delayed_allocations[r] = platform.delayed_allocations(region);
        out.scratch_allocations[r] = platform.scratch_allocations(region);
        out.cold_start_latency_sum_us[r] = platform.cold_start_latency_sum_us(region);
      }
      out.cost_ledger = platform.cost_ledger();
      profile->shard_wall_s[s] = NowSeconds() - shard_begin;
    });
  }
  const double sweep_begin = NowSeconds();
  sweep.Run();
  profile->sweep_wall_s = NowSeconds() - sweep_begin;
  profile->workers = std::max(1, std::min(sweep.num_threads(), static_cast<int>(num_shards)));
  if (policy != nullptr && sharded) {
    for (const auto& clone : clones) {
      prototype->AbsorbShardStats(*clone);
    }
  }

  core::ExperimentResult result;
  result.mode = config.trace_mode;
  for (auto* v : {&result.visible_cold_starts, &result.prewarm_spawns,
                  &result.delayed_allocations, &result.scratch_allocations,
                  &result.cold_start_latency_sum_us}) {
    v->assign(regions, 0);
  }
  result.cost_ledger = platform::ResourceCostLedger(regions);
  const double merge_begin = NowSeconds();
  if (streaming) {
    result.streaming = std::move(shards[0].streaming);
    for (size_t s = 1; s < num_shards; ++s) {
      result.streaming.MergeFrom(shards[s].streaming);
    }
  } else {
    result.store = std::move(shards[0].store);
    for (size_t s = 1; s < num_shards; ++s) {
      result.store.AppendFrom(std::move(shards[s].store));
    }
  }
  for (const ShardOutcome& out : shards) {
    result.events_processed += out.events;
    AddInto(result.visible_cold_starts, out.visible_cold_starts);
    AddInto(result.prewarm_spawns, out.prewarm_spawns);
    AddInto(result.delayed_allocations, out.delayed_allocations);
    AddInto(result.scratch_allocations, out.scratch_allocations);
    AddInto(result.cold_start_latency_sum_us, out.cold_start_latency_sum_us);
    result.cost_ledger.MergeFrom(out.cost_ledger);
  }
  const double merge_end = NowSeconds();
  profile->merge_s = merge_end - merge_begin;
  if (!streaming) {
    result.store.Seal();
  }
  profile->seal_s = NowSeconds() - merge_end;
  if (traced) {
    profile->tracers[0].Keep("merge", merge_begin, merge_end);
    profile->tracers[0].Keep("seal", merge_end, merge_end + profile->seal_s);
  }
  if (streaming) {
    profile->sink_mb = static_cast<double>(result.streaming.ApproxBytes()) / 1048576.0;
  } else {
    const trace::TraceStore& s = result.store;
    profile->sink_mb =
        static_cast<double>(s.requests().size() * sizeof(trace::RequestRecord) +
                            s.cold_starts().size() * sizeof(trace::ColdStartRecord) +
                            s.functions().size() * sizeof(trace::FunctionRecord) +
                            s.pods().size() * sizeof(trace::PodLifetimeRecord)) /
        1048576.0;
  }
  if (!sharded) {
    profile->day_end_s.push_back(NowSeconds() - start);
  }
  profile->wall_s = NowSeconds() - start;
  return result;
}

}  // namespace coldbench
