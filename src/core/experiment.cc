#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "common/byte_serde.h"
#include "common/check.h"
#include "common/env.h"
#include "core/sweep.h"
#include "trace/binary_io.h"
#include "workload/arrivals.h"
#include "workload/function_cells.h"

namespace coldstart::core {

namespace {

platform::Platform::Options PlatformOptions(const ScenarioConfig& config) {
  platform::Platform::Options options;
  options.seed = config.seed;
  options.record_requests = config.record_requests;
  options.default_keep_alive = config.default_keep_alive;
  options.cells_per_region = std::max<uint32_t>(config.cells_per_region, 1u);
  return options;
}

// The function-to-cell map shared by every platform of a cells > 1 run (null
// otherwise). Each platform instance — serial or any shard — must see the same
// map, or pod-id/RNG namespaces would disagree across shards.
std::shared_ptr<const std::vector<uint32_t>> MakeFunctionCells(
    const ScenarioConfig& config, const workload::Population& population) {
  if (config.cells_per_region <= 1) {
    return nullptr;
  }
  return std::make_shared<const std::vector<uint32_t>>(
      workload::ComputeFunctionCells(population, config.cells_per_region));
}

// --- Checkpoint plumbing -----------------------------------------------------

// Record tables travel as raw bytes, like trace/binary_io.cc does for the
// cache format: a checkpoint is consumed on the machine that wrote it.
template <typename Record>
void SaveTable(const std::vector<Record>& table, ByteWriter& w) {
  w.U64(table.size());
  if (!table.empty()) {
    w.Raw(table.data(), table.size() * sizeof(Record));
  }
}

template <typename Record>
std::vector<Record> RestoreTable(ByteReader& r) {
  // Bound the count by the bytes left before allocating: a CRC-valid count
  // too large for the payload dies on this CHECK, not in the allocator.
  const uint64_t count = r.U64();
  COLDSTART_CHECK(count <= r.Remaining() / sizeof(Record));
  std::vector<Record> table(count);
  if (!table.empty()) {
    r.Raw(table.data(), table.size() * sizeof(Record));
  }
  return table;
}

void SaveSinkState(bool streaming, const trace::TraceStore& store,
                   const trace::StreamingAggregates& aggregates, ByteWriter& w) {
  if (streaming) {
    aggregates.SaveState(w);
    return;
  }
  SaveTable(store.requests(), w);
  SaveTable(store.cold_starts(), w);
  SaveTable(store.functions(), w);
  SaveTable(store.pods(), w);
  w.I64(store.horizon());
}

void RestoreSinkState(bool streaming, trace::TraceStore& store,
                      trace::StreamingAggregates& aggregates, ByteReader& r) {
  if (streaming) {
    aggregates.RestoreState(r);
    return;
  }
  auto requests = RestoreTable<trace::RequestRecord>(r);
  auto cold_starts = RestoreTable<trace::ColdStartRecord>(r);
  auto functions = RestoreTable<trace::FunctionRecord>(r);
  auto pods = RestoreTable<trace::PodLifetimeRecord>(r);
  const SimTime horizon = r.I64();
  store.RestoreTables(std::move(requests), std::move(cold_starts),
                      std::move(functions), std::move(pods), horizon);
}

// One shard's full state, in the order RestoreShard consumes it: simulator
// clock/counters, policy blob, sink state, platform state.
std::string BuildCheckpointPayload(const sim::Simulator& sim,
                                   const platform::PlatformPolicy* policy,
                                   bool streaming, const trace::TraceStore& store,
                                   const trace::StreamingAggregates& aggregates,
                                   const platform::Platform& platform) {
  ByteWriter w;
  w.I64(sim.now());
  w.U64(sim.next_seq());
  w.U64(sim.events_processed());
  if (policy != nullptr) {
    std::string blob;
    COLDSTART_CHECK(policy->SavePolicyState(&blob) &&
                    "policy is not checkpointable (SavePolicyState returned false)");
    w.U8(1);
    w.Str(blob);
  } else {
    w.U8(0);
  }
  SaveSinkState(streaming, store, aggregates, w);
  platform.SaveCheckpointState(w);
  return w.Take();
}

// Restores one shard from its committed checkpoint file and returns the
// completed-day count. The platform must be freshly constructed with
// Options.resuming and the simulator untouched.
int64_t RestoreShard(const std::string& dir, const checkpoint::ManifestEntry& entry,
                     uint64_t fingerprint, uint8_t trace_mode, uint32_t num_regions,
                     uint32_t shard, sim::Simulator& sim,
                     platform::PlatformPolicy* policy, bool streaming,
                     trace::TraceStore& store,
                     trace::StreamingAggregates& aggregates,
                     platform::Platform& platform,
                     std::unique_ptr<workload::ArrivalStream> stream) {
  checkpoint::CheckpointMeta meta;
  std::string payload;
  const std::string path = dir + "/" + entry.file;
  COLDSTART_CHECK(checkpoint::ReadCheckpointFile(path, &meta, &payload) &&
                  "manifest names a checkpoint file that does not exist");
  COLDSTART_CHECK_EQ(meta.fingerprint, fingerprint);
  COLDSTART_CHECK_EQ(meta.trace_mode, trace_mode);
  COLDSTART_CHECK_EQ(meta.shard, shard);
  COLDSTART_CHECK_EQ(meta.day, entry.day);
  COLDSTART_CHECK_EQ(meta.num_regions, num_regions);
  ByteReader r(payload);
  const SimTime now = r.I64();
  const uint64_t next_seq = r.U64();
  const uint64_t events = r.U64();
  sim.RestoreClock(now, next_seq, events);
  if (r.U8() != 0) {
    COLDSTART_CHECK(policy != nullptr &&
                    "checkpoint carries policy state but no policy was passed");
    COLDSTART_CHECK(policy->RestorePolicyState(r.Str()));
  } else {
    COLDSTART_CHECK(policy == nullptr &&
                    "checkpoint has no policy state but a policy was passed");
  }
  RestoreSinkState(streaming, store, aggregates, r);
  platform.RestoreCheckpointState(r, std::move(stream));
  COLDSTART_CHECK(r.AtEnd());
  return meta.day;
}

// Serializes manifest updates across shard threads: each Commit writes the
// shard's checkpoint file, installs its manifest entry, and atomically
// rewrites the manifest — so the manifest always names fully committed files.
class CheckpointCommitter {
 public:
  CheckpointCommitter(const CheckpointPolicy& policy, uint64_t fingerprint,
                      uint8_t trace_mode, uint32_t num_regions, bool sharded,
                      uint32_t shards_per_region)
      : policy_(policy) {
    manifest_.fingerprint = fingerprint;
    manifest_.trace_mode = trace_mode;
    manifest_.num_regions = num_regions;
    manifest_.sharded = sharded;
    manifest_.shards_per_region = shards_per_region;
    std::error_code ec;
    std::filesystem::create_directories(policy.dir, ec);
  }

  // Carries forward the entries of the manifest the run resumed from, so a
  // shard that has not checkpointed again yet keeps its old entry.
  void SeedFrom(const checkpoint::Manifest& manifest) {
    manifest_.entries = manifest.entries;
  }

  void Commit(int64_t day, uint32_t shard, const std::string& payload) {
    checkpoint::CheckpointMeta meta;
    meta.fingerprint = manifest_.fingerprint;
    meta.trace_mode = manifest_.trace_mode;
    meta.shard = shard;
    meta.day = day;
    meta.num_regions = manifest_.num_regions;
    const std::string file = checkpoint::CheckpointFileName(day, shard);
    COLDSTART_CHECK(
        checkpoint::WriteCheckpointFile(policy_.dir + "/" + file, meta, payload) &&
        "failed to write checkpoint file");
    {
      std::lock_guard<std::mutex> lock(mu_);
      bool found = false;
      for (checkpoint::ManifestEntry& e : manifest_.entries) {
        if (e.shard == shard) {
          e.day = day;
          e.file = file;
          found = true;
          break;
        }
      }
      if (!found) {
        manifest_.entries.push_back({shard, day, file});
      }
      COLDSTART_CHECK(checkpoint::WriteManifest(policy_.dir, manifest_) &&
                      "failed to write checkpoint manifest");
    }
    if (policy_.on_checkpoint) {
      policy_.on_checkpoint(day, shard);
    }
  }

 private:
  const CheckpointPolicy& policy_;
  checkpoint::Manifest manifest_;
  std::mutex mu_;
};

// Runs one shard from its start day to the horizon. With a CheckpointPolicy,
// execution is split at day boundaries — provably equivalent to one long
// RunUntil (docs/determinism.md "Checkpoint contract") — and `commit` fires at
// the configured cadence. Returns -1 on completion (Finalize ran), else the
// boundary where the stop flag ended the run (a checkpoint was committed).
int64_t RunShardDays(sim::Simulator& sim, platform::Platform& platform,
                     SimTime horizon, int64_t start_day,
                     const CheckpointPolicy* checkpoint,
                     const std::function<void(int64_t)>& commit) {
  if (checkpoint != nullptr) {
    const int every = checkpoint->every_n_days > 0 ? checkpoint->every_n_days : 1;
    for (int64_t day = start_day + 1; day * kDay < horizon; ++day) {
      sim.RunUntil(day * kDay - 1);
      const bool stop = checkpoint->stop != nullptr &&
                        checkpoint->stop->load(std::memory_order_relaxed);
      if (stop || day % every == 0) {
        commit(day);
      }
      if (stop) {
        return day;
      }
    }
  }
  sim.RunUntil(horizon);
  platform.Finalize();
  return -1;
}

const checkpoint::ManifestEntry* FindEntry(const checkpoint::Manifest* manifest,
                                           uint32_t shard) {
  if (manifest == nullptr) {
    return nullptr;
  }
  for (const checkpoint::ManifestEntry& e : manifest->entries) {
    if (e.shard == shard) {
      return &e;
    }
  }
  return nullptr;
}

// Entries are matched by linear (shard, day) scan, so a stale entry — written
// under a different shard geometry, or duplicated by a corrupt merge — would
// silently restore the wrong state slice. Reject the whole manifest loudly
// instead: every entry must name a shard inside the run's regions × K id
// space (or kSerialShard for a serial manifest), exactly once.
void ValidateManifestEntries(const checkpoint::Manifest& manifest,
                             size_t num_regions) {
  const uint64_t limit =
      static_cast<uint64_t>(num_regions) * manifest.shards_per_region;
  std::vector<uint32_t> seen;
  seen.reserve(manifest.entries.size());
  for (const checkpoint::ManifestEntry& e : manifest.entries) {
    if (manifest.sharded) {
      COLDSTART_CHECK(e.shard < limit &&
                      "manifest entry names a shard outside regions x "
                      "shards_per_region (stale entry from a different K?)");
    } else {
      COLDSTART_CHECK(e.shard == checkpoint::kSerialShard &&
                      "serial manifest carries a sharded entry");
    }
    COLDSTART_CHECK(std::find(seen.begin(), seen.end(), e.shard) == seen.end() &&
                    "manifest lists the same shard twice");
    seen.push_back(e.shard);
  }
}

// A run's shard plan. Shard s covers region s / k, cell group s % k: its
// platform sees only that slice's arrivals and its id is s. K is the scenario's
// cells_per_region when the policy is function-local, 1 when it is
// capacity-coupled, and the checkpointed value on resume. The whole-run plan is
// the serial path: one shard spanning every region, fed by the unfiltered
// stream, driven by the caller's own policy instance and checkpointed as
// kSerialShard.
struct ShardPlan {
  bool sharded = false;
  uint32_t k = 1;
  size_t num_shards = 1;
  // One clone per shard when sharded under a policy; empty otherwise (every
  // shard then runs the caller's instance, which is null or the only shard's).
  std::vector<std::unique_ptr<platform::PlatformPolicy>> clones;
};

// The one planner behind Run, ResumeFrom and CanShard. A shard is (region,
// contiguous cell group). K == 1 is plain region sharding — the only geometry
// available to capacity-coupled policies, since splitting a region's cells also
// splits its pools and load state. K > 1 (sub-region sharding) engages when
// the scenario decomposes (cells > 1) and the policy never reads
// region-coupled state (is_function_local); K is then the cell count whatever
// the thread budget, so a run's geometry — and its checkpoint — is a property
// of the scenario, not of the machine. A resume adopts the checkpointed
// geometry verbatim — shard ids must line up with the manifest entries.
// Everything else (one thread, a cross-region policy, a policy that cannot
// clone per-shard state) gets the whole-run plan: same results, one thread.
ShardPlan PlanShards(const ScenarioConfig& config, platform::PlatformPolicy* policy,
                     int threads, const checkpoint::Manifest* resume) {
  const size_t regions = config.profiles.size();
  const uint32_t cells = std::max<uint32_t>(config.cells_per_region, 1u);
  const bool region_local = policy == nullptr || policy->is_region_local();
  const bool function_local =
      region_local && (policy == nullptr || policy->is_function_local());
  const bool shardable = (regions > 1 && region_local) || (cells > 1 && function_local);
  ShardPlan plan;
  if (resume != nullptr ? !resume->sharded : (threads <= 1 || !shardable)) {
    return plan;
  }
  COLDSTART_CHECK(shardable &&
                  "sharded checkpoint requires a shardable config and policy");
  if (resume != nullptr) {
    plan.k = resume->shards_per_region;
  } else if (function_local) {
    plan.k = cells;
  }
  COLDSTART_CHECK((plan.k == 1 || function_local) &&
                  "sub-region (K > 1) geometry with a policy that reads "
                  "region-coupled state");
  plan.num_shards = regions * plan.k;
  if (policy != nullptr) {
    plan.clones.resize(plan.num_shards);
    for (auto& clone : plan.clones) {
      clone = policy->CloneForShard();
      if (clone == nullptr) {
        // Cloning is the probe, so the hot path never builds a throwaway clone
        // tree. A resume cannot fall back: its checkpoint holds per-shard state.
        COLDSTART_CHECK(resume == nullptr &&
                        "sharded checkpoint requires a shardable config and policy");
        return ShardPlan{};
      }
    }
  }
  plan.sharded = true;
  return plan;
}

// The per-region platform counters, folded across shards by element-wise sum;
// the trace cache persists them in this order (trace::TraceAggregates).
constexpr std::vector<int64_t> ExperimentResult::*kRegionCounters[] = {
    &ExperimentResult::visible_cold_starts, &ExperimentResult::prewarm_spawns,
    &ExperimentResult::delayed_allocations, &ExperimentResult::scratch_allocations,
    &ExperimentResult::cold_start_latency_sum_us};
static_assert(std::size(kRegionCounters) == trace::kNumRegionSeries);

// The plan's shard ids in dispatch order: largest expected load first, so the
// shard that bounds the run never starts last. A shard's load is its
// functions' nominal requests per day (a timer fires kDay / timer_period
// times); ties keep id order. The order moves only the wall clock, since
// FoldShard is blind to it.
std::vector<size_t> DispatchOrder(const ShardPlan& plan,
                                  const workload::Population& population,
                                  const std::vector<uint32_t>* function_cells,
                                  uint32_t cells) {
  std::vector<size_t> order(plan.num_shards);
  std::iota(order.begin(), order.end(), size_t{0});
  if (!plan.sharded) {
    return order;
  }
  std::vector<double> load(plan.num_shards, 0.0);
  for (const workload::FunctionSpec& spec : population.functions) {
    const uint32_t cell = function_cells != nullptr ? (*function_cells)[spec.id] : 0;
    // The group g with g * cells / K <= cell < (g + 1) * cells / K.
    const uint32_t group = ((cell + 1) * plan.k - 1) / cells;
    load[spec.region * plan.k + group] +=
        spec.kind == workload::ArrivalKind::kTimer
            ? static_cast<double>(kDay) / static_cast<double>(spec.timer_period)
            : spec.base_rate_per_day;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&load](size_t a, size_t b) { return load[a] > load[b]; });
  return order;
}

// Folds a finished shard into the run result (`first`: nothing folded yet).
// kFull: every shard emitted the identical function table, and Seal() later
// puts the event tables in the canonical (time, region, id) order. kStreaming:
// every accumulator, like every region counter and ledger slot, is an integer
// sum, count, min or max. So the order shards finish in cannot change a bit,
// at any thread count and any K.
void FoldShard(ExperimentResult& result, ExperimentResult&& shard, bool streaming,
               bool first) {
  if (first) {
    result = std::move(shard);
    return;
  }
  if (streaming) {
    result.streaming.MergeFrom(shard.streaming);
  } else {
    result.store.AppendFrom(std::move(shard.store));
  }
  for (const auto counter : kRegionCounters) {
    for (size_t r = 0; r < (result.*counter).size(); ++r) {
      (result.*counter)[r] += (shard.*counter)[r];
    }
  }
  result.cost_ledger.MergeFrom(shard.cost_ledger);
  result.events_processed += shard.events_processed;
  result.interrupted_at_day = std::max(result.interrupted_at_day, shard.interrupted_at_day);
}

}  // namespace

bool Experiment::CanShard(platform::PlatformPolicy* policy) const {
  // Any thread budget above one: the plan's geometry does not matter here.
  return PlanShards(config_, policy, /*threads=*/2, nullptr).sharded;
}

ExperimentResult Experiment::Run(platform::PlatformPolicy* policy,
                                 int num_threads,
                                 const CheckpointPolicy* checkpoint) const {
  return Execute(policy, num_threads, checkpoint, nullptr, std::string());
}

ExperimentResult Experiment::ResumeFrom(const std::string& dir,
                                        platform::PlatformPolicy* policy,
                                        int num_threads,
                                        const CheckpointPolicy* checkpoint) const {
  checkpoint::Manifest manifest;
  COLDSTART_CHECK(checkpoint::ReadManifest(dir, &manifest) &&
                  "no checkpoint manifest in the resume directory");
  // The resumed run must be the checkpointed run: same fingerprint (config,
  // workload, trace mode) and region count. Anything else diverges silently.
  COLDSTART_CHECK_EQ(manifest.fingerprint, config_.Fingerprint());
  COLDSTART_CHECK_EQ(manifest.trace_mode,
                     static_cast<uint8_t>(config_.trace_mode));
  COLDSTART_CHECK_EQ(manifest.num_regions, config_.profiles.size());
  COLDSTART_CHECK_GE(manifest.shards_per_region, 1u);
  COLDSTART_CHECK_LE(manifest.shards_per_region,
                     std::max<uint32_t>(config_.cells_per_region, 1u));
  ValidateManifestEntries(manifest, config_.profiles.size());
  // Honor the caller's thread count as-is: the shard loop runs correctly on
  // one worker (shards execute sequentially), so an explicit num_threads=1
  // must not be silently promoted to 2.
  return Execute(policy, num_threads, checkpoint, &manifest, dir);
}

ExperimentResult Experiment::Execute(platform::PlatformPolicy* policy, int num_threads,
                                     const CheckpointPolicy* checkpoint,
                                     const checkpoint::Manifest* resume,
                                     const std::string& resume_dir) const {
  const int threads =
      num_threads > 0 ? num_threads : ParallelSweep::DefaultThreads();
  const ShardPlan plan = PlanShards(config_, policy, threads, resume);
  // LINT-ALLOW(wall-clock): diagnostics-only wall timing for sim_wall_seconds; never reaches traces or aggregates
  const auto wall_start = std::chrono::steady_clock::now();

  const bool streaming = config_.trace_mode == TraceMode::kStreaming;
  const workload::Calendar calendar = config_.MakeCalendar();
  const std::vector<workload::RegionProfile> profiles = config_.ScaledProfiles();
  const size_t regions = profiles.size();
  const uint32_t cells = std::max<uint32_t>(config_.cells_per_region, 1u);
  const uint64_t fingerprint = config_.Fingerprint();

  // Workload generation is shared only through immutable inputs: every shard
  // simulates against the same population (read-only) and opens its *own*
  // arrival stream — synthetic or replayed, the runner does not care. The
  // per-shard filtered streams partition the unfiltered stream with relative
  // order preserved (the ArrivalStream contract), so nothing is materialized or
  // repartitioned up front: each shard pulls one day of its slice's arrivals at
  // a time, so arrival memory is O(busiest day) rather than O(horizon).
  workload::Population population = workload::GeneratePopulation(profiles, config_.seed);
  const std::shared_ptr<const std::vector<uint32_t>> function_cells =
      MakeFunctionCells(config_, population);

  std::optional<CheckpointCommitter> committer;
  if (checkpoint != nullptr) {
    COLDSTART_CHECK(!checkpoint->dir.empty());
    if (policy != nullptr) {
      // Fail at attach time, not at the first day boundary hours in.
      std::string probe;
      COLDSTART_CHECK(policy->SavePolicyState(&probe) &&
                      "policy is not checkpointable (SavePolicyState)");
    }
    committer.emplace(*checkpoint, fingerprint,
                      static_cast<uint8_t>(config_.trace_mode),
                      static_cast<uint32_t>(regions), plan.sharded, plan.k);
    if (resume != nullptr) {
      committer->SeedFrom(*resume);
    }
  }

  // One result per shard: own simulator, own platform, own sink. Shards start
  // largest first and fold into `result` as each one finishes, so the run
  // holds O(workers) shard results, never O(shards). The fold also hands each
  // clone's counters back to the caller's prototype, so policy statistics
  // (prewarms_issued() and friends) read the same whether the run sharded or
  // not. Shards share only immutable inputs, the mutex-guarded committer and
  // the mutex-guarded fold, so they are free of data races by construction;
  // the TSan job pins that. The stop flag is global, but shards notice it at
  // their own next day boundary, so an interrupted sharded run's shards may
  // rest at different days — each shard's manifest entry records its own.
  ExperimentResult result;
  size_t folded = 0;
  std::mutex fold_mu;
  ParallelSweep sweep(threads);
  for (const size_t s : DispatchOrder(plan, population, function_cells.get(), cells)) {
    sweep.Add([&, s] {
      ExperimentResult out;
      const uint32_t id =
          plan.sharded ? static_cast<uint32_t>(s) : checkpoint::kSerialShard;
      platform::PlatformPolicy* shard_policy =
          plan.clones.empty() ? policy : plan.clones[s].get();
      trace::TraceSink& sink = streaming ? static_cast<trace::TraceSink&>(out.streaming)
                                         : static_cast<trace::TraceSink&>(out.store);
      const checkpoint::ManifestEntry* entry = FindEntry(resume, id);
      platform::Platform::Options options = PlatformOptions(config_);
      options.function_cells = function_cells;
      options.resuming = entry != nullptr;
      sim::Simulator sim;
      platform::Platform platform(population, profiles, calendar, sim, sink, options,
                                  shard_policy);
      // K == 1: region filter only, the per-region partition. K > 1: the
      // region's cells split into K contiguous groups — group g simulates cells
      // [g * cells / K, (g + 1) * cells / K).
      std::optional<trace::RegionId> region;
      std::optional<workload::CellSlice> slice;
      if (plan.sharded) {
        region = static_cast<trace::RegionId>(s / plan.k);
        const auto group = static_cast<uint32_t>(s % plan.k);
        if (plan.k > 1) {
          slice = workload::CellSlice{function_cells, group * cells / plan.k,
                                      (group + 1) * cells / plan.k};
        }
      }
      auto stream = config_.workload_source().OpenStream(population, profiles, calendar,
                                                         config_.seed, region, slice);
      int64_t start_day = 0;
      if (entry != nullptr) {
        start_day = RestoreShard(resume_dir, *entry, fingerprint,
                                 static_cast<uint8_t>(config_.trace_mode),
                                 static_cast<uint32_t>(regions), id, sim, shard_policy,
                                 streaming, out.store, out.streaming, platform,
                                 std::move(stream));
      } else {
        platform.AttachArrivalStream(std::move(stream));
      }
      std::function<void(int64_t)> commit;
      if (committer) {
        commit = [&](int64_t day) {
          committer->Commit(day, id,
                            BuildCheckpointPayload(sim, shard_policy, streaming,
                                                   out.store, out.streaming, platform));
        };
      }
      out.interrupted_at_day =
          RunShardDays(sim, platform, calendar.horizon(), start_day, checkpoint, commit);
      out.events_processed = sim.events_processed();
      // A sharded platform only ever saw its own slice's arrivals, so its other
      // regions' rows read zero and shards fold by element-wise sum.
      for (size_t r = 0; r < regions; ++r) {
        const auto rid = static_cast<trace::RegionId>(r);
        out.visible_cold_starts.push_back(platform.cold_starts(rid));
        out.prewarm_spawns.push_back(platform.prewarm_spawns(rid));
        out.delayed_allocations.push_back(platform.delayed_allocations(rid));
        out.scratch_allocations.push_back(platform.scratch_allocations(rid));
        out.cold_start_latency_sum_us.push_back(platform.cold_start_latency_sum_us(rid));
      }
      out.cost_ledger = platform.cost_ledger();
      // The platform emits nothing more into `out`, so it can move.
      std::lock_guard<std::mutex> lock(fold_mu);
      FoldShard(result, std::move(out), streaming, folded++ == 0);
      if (!plan.clones.empty()) {
        policy->AbsorbShardStats(*plan.clones[s]);
      }
    });
  }
  sweep.Run();
  // A completed run seals. An interrupted sharded run's partial store is put
  // in the same canonical order, so it reads the same whatever order its
  // shards finished in; a one-shard run's emission order already does.
  if (result.interrupted_at_day < 0 || plan.sharded) {
    result.store.Seal();  // No-op in streaming mode (the store stayed empty).
  }
  result.mode = config_.trace_mode;
  result.population = std::move(population);
  result.sim_wall_seconds =
      // LINT-ALLOW(wall-clock): diagnostics-only wall timing for sim_wall_seconds; never reaches traces or aggregates
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

WorkloadStream OpenWorkloadStream(const ScenarioConfig& config) {
  WorkloadStream ws;
  const workload::Calendar calendar = config.MakeCalendar();
  const std::vector<workload::RegionProfile> profiles = config.ScaledProfiles();
  ws.population = workload::GeneratePopulation(profiles, config.seed);
  ws.arrivals = config.workload_source().OpenStream(ws.population, profiles,
                                                    calendar, config.seed);
  return ws;
}

WorkloadSnapshot SnapshotWorkload(const ScenarioConfig& config) {
  WorkloadStream ws = OpenWorkloadStream(config);
  WorkloadSnapshot snap;
  snap.arrivals = workload::DrainArrivalStream(*ws.arrivals);
  snap.population = std::move(ws.population);
  return snap;
}

std::string Experiment::DefaultCacheDir() {
  return ParseEnvString("COLDSTART_CACHE_DIR", "coldstart_cache");
}

ExperimentResult Experiment::RunCached(const std::string& cache_dir,
                                       platform::PlatformPolicy* policy) const {
  // Policy runs must use Run(): a policy changes the emitted trace, and caching it
  // under the baseline fingerprint would silently poison every later baseline read.
  COLDSTART_CHECK(policy == nullptr && "RunCached is baseline-only; use Run(policy)");
  // The cache persists full traces; a streaming run has no store to cache.
  COLDSTART_CHECK(config_.trace_mode == TraceMode::kFull &&
                  "RunCached requires TraceMode::kFull");
  namespace fs = std::filesystem;
  // v6 filename scheme, bumped with the fingerprint salt: v6 folds the
  // per-profile cold-start model selection into the fingerprint and persists
  // the resource-cost ledger, so files written under the older schemes are
  // never picked up.
  char name[64];
  std::snprintf(name, sizeof(name), "scenario_v6_%016" PRIx64 ".bin",
                config_.Fingerprint());
  const std::string path = (fs::path(cache_dir) / name).string();

  std::error_code ec;
  if (fs::exists(path, ec)) {
    ExperimentResult result;
    trace::TraceAggregates aggregates;
    if (trace::ReadBinaryTrace(path, result.store, &aggregates) &&
        aggregates.region_series[0].size() == config_.profiles.size()) {
      result.store.Seal();
      result.from_cache = true;
      for (size_t i = 0; i < trace::kNumRegionSeries; ++i) {
        result.*kRegionCounters[i] = std::move(aggregates.region_series[i]);
      }
      result.events_processed = aggregates.events_processed;
      if (!aggregates.cost_ledger.empty()) {
        ByteReader cost(aggregates.cost_ledger);
        result.cost_ledger.RestoreState(cost);
        COLDSTART_CHECK(cost.AtEnd());
      }
      return result;
    }
    // Corrupt or stale-format cache: fall through to a fresh run and rewrite.
  }

  ExperimentResult result = Run(nullptr);
  fs::create_directories(cache_dir, ec);
  trace::TraceAggregates aggregates;
  for (size_t i = 0; i < trace::kNumRegionSeries; ++i) {
    aggregates.region_series[i] = result.*kRegionCounters[i];
  }
  aggregates.events_processed = result.events_processed;
  {
    ByteWriter cost;
    result.cost_ledger.SaveState(cost);
    aggregates.cost_ledger = cost.Take();
  }
  if (!trace::WriteBinaryTrace(result.store, path, &aggregates)) {
    std::fprintf(stderr, "warning: failed to write trace cache at %s\n", path.c_str());
  }
  return result;
}

}  // namespace coldstart::core
