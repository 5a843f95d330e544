#include "core/experiment.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/byte_serde.h"
#include "common/check.h"
#include "common/env.h"
#include "common/framed_file.h"
#include "core/sweep.h"
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
// otherwise). Every shard's platform, the whole-run one included, must see the
// same map, or pod-id/RNG namespaces would disagree across shards.
std::shared_ptr<const std::vector<uint32_t>> MakeFunctionCells(
    const ScenarioConfig& config, const workload::Population& population) {
  if (config.cells_per_region <= 1) {
    return nullptr;
  }
  return std::make_shared<const std::vector<uint32_t>>(
      workload::ComputeFunctionCells(population, config.cells_per_region));
}

// --- Record tables -----------------------------------------------------------

// Record tables travel as raw bytes: a checkpoint segment or trace cache is
// consumed by the build that wrote it. A record without padding holes
// (trace/records.h) writes the same bytes for the same fields, so identical
// runs write identical files. On disk a table is its row count, then its rows,
// and the four go requests, cold starts, functions, pods. The trace cache
// holds the whole tables; a checkpoint segment holds the rows they gained
// since the shard's previous commit.

// Row counts of the four tables, in file order.
using TableRows = std::array<uint64_t, 4>;

TableRows RowCounts(const trace::TraceStore& store) {
  return {store.requests().size(), store.cold_starts().size(),
          store.functions().size(), store.pods().size()};
}

template <typename Record>
std::string_view RowBytes(const std::vector<Record>& table, uint64_t from) {
  static_assert(std::has_unique_object_representations_v<Record>);
  return {reinterpret_cast<const char*>(table.data() + from),
          (table.size() - from) * sizeof(Record)};
}

// The rows each table of `store` holds past `from`, as frame spans that point
// into the store's own vectors. The store is append-only until Seal, so the
// rows past a previous commit are exactly what it gained since.
class TableSpans {
 public:
  TableSpans(const trace::TraceStore& store, const TableRows& from) {
    const TableRows to = RowCounts(store);
    for (size_t t = 0; t < to.size(); ++t) {
      COLDSTART_CHECK_LE(from[t], to[t]);
      counts_[t] = to[t] - from[t];
    }
    rows_ = {RowBytes(store.requests(), from[0]), RowBytes(store.cold_starts(), from[1]),
             RowBytes(store.functions(), from[2]), RowBytes(store.pods(), from[3])};
  }

  void AppendTo(std::vector<std::string_view>& spans) const {
    for (size_t t = 0; t < rows_.size(); ++t) {
      spans.emplace_back(reinterpret_cast<const char*>(&counts_[t]), sizeof(counts_[t]));
      spans.push_back(rows_[t]);
    }
  }

 private:
  TableRows counts_{};
  std::array<std::string_view, 4> rows_;
};

// The four tables as they are read back, before they go into a TraceStore.
struct RecordTables {
  std::vector<trace::RequestRecord> requests;
  std::vector<trace::ColdStartRecord> cold_starts;
  std::vector<trace::FunctionRecord> functions;
  std::vector<trace::PodLifetimeRecord> pods;

  TableRows Rows() const {
    return {requests.size(), cold_starts.size(), functions.size(), pods.size()};
  }

  void Install(trace::TraceStore& store, SimTime horizon) {
    store.RestoreTables(std::move(requests), std::move(cold_starts),
                        std::move(functions), std::move(pods), horizon);
  }
};

// Appends the next table in `r` to `table`. Returns false, having appended
// nothing, when its row count overruns a damaged frame; the caller's Finish
// then reports the damage.
template <typename Record>
bool ReadTable(FrameReader& r, std::vector<Record>& table) {
  static_assert(std::has_unique_object_representations_v<Record>);
  // Bound the count by the bytes left before allocating: a count too large for
  // the payload is damage when the CRC disagrees, and on a CRC-valid payload it
  // dies on this CHECK — never in the allocator.
  const uint64_t count = r.U64();
  if (count > r.Remaining() / sizeof(Record) && r.Damaged()) {
    return false;
  }
  COLDSTART_CHECK(count <= r.Remaining() / sizeof(Record));
  const size_t size = table.size();
  table.resize(size + count);
  r.Read(table.data() + size, count * sizeof(Record));
  return true;
}

bool ReadTables(FrameReader& r, RecordTables& tables) {
  return ReadTable(r, tables.requests) && ReadTable(r, tables.cold_starts) &&
         ReadTable(r, tables.functions) && ReadTable(r, tables.pods);
}

// --- Checkpoint plumbing -----------------------------------------------------

// A kFull shard's committed segments: the rows they hold, per table, and the
// days that wrote them, in commit order.
struct SegmentLog {
  TableRows rows{};
  std::vector<int64_t> days;
};

// Writes the rows `store` gained since the shard's previous commit as day
// `day`'s segment and records it in `log`. Runs before the checkpoint file
// that lists the segment, which is what leaves a kill between the two with
// only an orphan segment.
void AppendSegment(const std::string& dir, int64_t day, uint32_t shard,
                   const trace::TraceStore& store, SegmentLog& log) {
  const TableSpans tables(store, log.rows);
  std::vector<std::string_view> spans;
  tables.AppendTo(spans);
  COLDSTART_CHECK(checkpoint::WriteSegmentFile(
                      dir + "/" + checkpoint::SegmentFileName(day, shard), spans) &&
                  "failed to write checkpoint segment");
  log.rows = RowCounts(store);
  log.days.push_back(day);
}

// The kFull sink state (common/byte_serde.h): the table totals, the horizon
// and the segment list; the rows themselves are in the segments.
template <class Ar, class Log>
void SegmentLogLayout(Ar& a, Log& log, SimTime& horizon) {
  for (auto& rows : log.rows) {
    a.U64(rows);
  }
  a.I64(horizon);
  a.Count(log.days, sizeof(int64_t));
  for (auto& day : log.days) {
    a.I64(day);
  }
}

// kFull: the segment log. kStreaming: the aggregates.
void SaveSinkState(bool streaming, const trace::TraceStore& store,
                   const trace::StreamingAggregates& aggregates,
                   const SegmentLog& segments, ByteWriter& w) {
  if (streaming) {
    aggregates.SaveState(w);
    return;
  }
  SimTime horizon = store.horizon();
  SegmentLogLayout(w, segments, horizon);
}

// Reads the segments back straight into tables reserved at their totals.
void RestoreSinkState(bool streaming, const std::string& dir, uint32_t shard,
                      trace::TraceStore& store, trace::StreamingAggregates& aggregates,
                      SegmentLog& segments, ByteReader& r) {
  if (streaming) {
    aggregates.RestoreState(r);
    return;
  }
  SimTime horizon = 0;
  SegmentLogLayout(r, segments, horizon);
  COLDSTART_CHECK(std::adjacent_find(segments.days.begin(), segments.days.end(),
                                     std::greater_equal<>()) == segments.days.end() &&
                  "checkpoint lists its segments out of day order");
  // A total is only trusted once the segments confirm it, so it never
  // reserves more than they can hold.
  uint64_t segment_bytes = 0;
  for (const int64_t day : segments.days) {
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(
        dir + "/" + checkpoint::SegmentFileName(day, shard), ec);
    segment_bytes += ec ? 0 : size;
  }
  RecordTables tables;
  const auto reserve = [segment_bytes](auto& table, uint64_t rows) {
    table.reserve(std::min<uint64_t>(rows, segment_bytes / sizeof(table[0])));
  };
  reserve(tables.requests, segments.rows[0]);
  reserve(tables.cold_starts, segments.rows[1]);
  reserve(tables.functions, segments.rows[2]);
  reserve(tables.pods, segments.rows[3]);
  for (const int64_t day : segments.days) {
    checkpoint::ReadSegmentFile(dir + "/" + checkpoint::SegmentFileName(day, shard),
                                [&tables](FrameReader& seg) { ReadTables(seg, tables); });
  }
  COLDSTART_CHECK(tables.Rows() == segments.rows &&
                  "checkpoint segments disagree with its table totals");
  tables.Install(store, horizon);
}

// One shard's full state, in the order RestoreShard consumes it: simulator
// clock/counters, policy blob, sink state, platform state.
std::string BuildCheckpointPayload(const sim::Simulator& sim,
                                   const platform::PlatformPolicy* policy,
                                   bool streaming, const trace::TraceStore& store,
                                   const trace::StreamingAggregates& aggregates,
                                   const SegmentLog& segments,
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
  SaveSinkState(streaming, store, aggregates, segments, w);
  platform.SaveCheckpointState(w);
  return w.Take();
}

// Restores one shard from its checkpoint file committed at `day`. The platform
// must be freshly constructed with Options.resuming and the simulator untouched.
void RestoreShard(const std::string& dir, int64_t day, uint64_t fingerprint,
                  uint8_t trace_mode, uint32_t num_regions, uint32_t shard,
                  sim::Simulator& sim, platform::PlatformPolicy* policy, bool streaming,
                  trace::TraceStore& store, trace::StreamingAggregates& aggregates,
                  SegmentLog& segments, platform::Platform& platform,
                  std::unique_ptr<workload::ArrivalStream> stream) {
  checkpoint::CheckpointMeta meta;
  std::string payload;
  const std::string path = dir + "/" + checkpoint::CheckpointFileName(day, shard);
  COLDSTART_CHECK(checkpoint::ReadCheckpointFile(path, &meta, &payload) &&
                  "manifest names a checkpoint file that does not exist");
  COLDSTART_CHECK_EQ(meta.fingerprint, fingerprint);
  COLDSTART_CHECK_EQ(meta.trace_mode, trace_mode);
  COLDSTART_CHECK_EQ(meta.shard, shard);
  COLDSTART_CHECK_EQ(meta.day, day);
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
  RestoreSinkState(streaming, dir, shard, store, aggregates, segments, r);
  platform.RestoreCheckpointState(r, std::move(stream));
  COLDSTART_CHECK(r.AtEnd());
}

// Serializes manifest updates across shard threads: each Commit writes the
// shard's checkpoint file, sets the shard's day and atomically rewrites the
// manifest, so the manifest always names fully committed files. Its bytes
// depend on the days alone, never on the order shards commit in. Once the
// manifest commits, the shard's day files below the day it replaced are
// deleted: the directory keeps the committed file and the one it replaced. In
// a resumed run, a shard's first commit thereby also deletes the day files the
// interrupted run left below the seeded day. Segments are never deleted, since
// every later day file lists them. Every name is derived from (day, shard),
// never read from disk.
class CheckpointCommitter {
 public:
  // `days`: the resumed manifest's, or one 0 per shard of a fresh run.
  CheckpointCommitter(const CheckpointPolicy& policy, uint64_t fingerprint,
                      uint8_t trace_mode, uint32_t num_regions, std::vector<int64_t> days)
      : policy_(policy), prune_from_(days.size(), 1) {
    manifest_.fingerprint = fingerprint;
    manifest_.trace_mode = trace_mode;
    manifest_.num_regions = num_regions;
    manifest_.days = std::move(days);
    std::error_code ec;
    std::filesystem::create_directories(policy.dir, ec);
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
      const int64_t replaced = manifest_.days[shard];
      manifest_.days[shard] = day;
      COLDSTART_CHECK(checkpoint::WriteManifest(policy_.dir, manifest_) &&
                      "failed to write checkpoint manifest");
      std::error_code ec;
      for (int64_t d = prune_from_[shard]; d < replaced; ++d) {
        std::filesystem::remove(policy_.dir + "/" + checkpoint::CheckpointFileName(d, shard),
                                ec);
      }
      prune_from_[shard] = std::max(prune_from_[shard], replaced);
    }
    if (policy_.on_checkpoint) {
      policy_.on_checkpoint(day, shard);
    }
  }

 private:
  const CheckpointPolicy& policy_;
  checkpoint::Manifest manifest_;
  // Per shard, the lowest day whose file may still be on disk unreferenced:
  // 1 until the shard's first commit, then the day its last commit replaced.
  std::vector<int64_t> prune_from_;
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

// A run's shard plan. Shard s covers region s / k, cell group s % k: its
// platform sees only that slice's arrivals and its id is s. K is the scenario's
// cells_per_region when the policy is function-local, 1 when it is
// capacity-coupled, and the checkpointed value on resume. The whole-run plan is
// the one-shard case: shard 0 spans every region, fed by the unfiltered stream
// and driven by the caller's own policy instance.
struct ShardPlan {
  uint32_t k = 1;
  size_t num_shards = 1;
  // Sharded under a policy: the clone the planner made as its probe. The first
  // shard to start takes it; every later shard clones when it starts.
  std::unique_ptr<platform::PlatformPolicy> probe;
};

// The one planner behind Run and ResumeFrom. A shard is (region,
// contiguous cell group). K == 1 is plain region sharding — the only geometry
// available to capacity-coupled policies, since splitting a region's cells also
// splits its pools and load state. K > 1 (sub-region sharding) engages when
// the scenario decomposes (cells > 1) and the policy never reads
// region-coupled state (is_function_local); K is then the cell count whatever
// the thread budget, so a run's geometry — and its checkpoint — is a property
// of the scenario, not of the machine. A resume adopts the checkpointed
// geometry verbatim: its manifest holds one day per shard, so a length other
// than 1 or regions x K (1 <= K <= cells) names no plan and dies.
// On one thread the shard plan runs its shards back to back, which pays only
// where shards fold for free: a kStreaming sink and no CheckpointPolicy. A
// kFull shard adds a table merge and a checkpointed one its own commits (each
// an fsync'd day file and manifest), so such a run on one thread keeps the
// whole-run plan: `year_scale 1 0.05 --checkpoint` at one thread ran about 30%
// longer on the 5-shard plan than on the whole-run plan. So do a cross-region
// policy and a policy that cannot clone per-shard state, at any thread count:
// same results either way.
ShardPlan PlanShards(const ScenarioConfig& config, platform::PlatformPolicy* policy,
                     int threads, const CheckpointPolicy* checkpoint,
                     const checkpoint::Manifest* resume) {
  const size_t regions = config.profiles.size();
  const uint32_t cells = std::max<uint32_t>(config.cells_per_region, 1u);
  const bool region_local = policy == nullptr || policy->is_region_local();
  const bool function_local =
      region_local && (policy == nullptr || policy->is_function_local());
  const bool shardable = (regions > 1 && region_local) || (cells > 1 && function_local);
  const bool folds_free =
      config.trace_mode == TraceMode::kStreaming && checkpoint == nullptr;
  ShardPlan plan;
  if (resume != nullptr ? resume->days.size() == 1
                        : (!shardable || (threads <= 1 && !folds_free))) {
    return plan;
  }
  COLDSTART_CHECK(shardable &&
                  "sharded checkpoint requires a shardable config and policy");
  if (resume != nullptr) {
    plan.k = static_cast<uint32_t>(resume->days.size() / regions);
    COLDSTART_CHECK(resume->days.size() == regions * plan.k && plan.k >= 1 && plan.k <= cells &&
                    "manifest geometry: neither 1 day (whole run) nor regions x K, 1 <= K <= cells");
  } else if (function_local) {
    plan.k = cells;
  }
  COLDSTART_CHECK((plan.k == 1 || function_local) &&
                  "sub-region (K > 1) geometry with a policy that reads "
                  "region-coupled state");
  plan.num_shards = regions * plan.k;
  if (policy != nullptr) {
    // Cloning is the probe, so the hot path never builds a throwaway clone.
    // A resume cannot fall back: its checkpoint holds per-shard state.
    plan.probe = policy->CloneForShard();
    if (plan.probe == nullptr) {
      COLDSTART_CHECK(resume == nullptr &&
                      "sharded checkpoint requires a shardable config and policy");
      return ShardPlan{};
    }
  }
  return plan;
}

// The per-region platform counters, folded across shards by element-wise sum;
// the trace cache persists them in this order.
constexpr std::vector<int64_t> ExperimentResult::*kRegionCounters[] = {
    &ExperimentResult::visible_cold_starts, &ExperimentResult::prewarm_spawns,
    &ExperimentResult::delayed_allocations, &ExperimentResult::scratch_allocations,
    &ExperimentResult::cold_start_latency_sum_us};

// The trace cache file: the shared frame around a layout word, the kFull sink
// tables and horizon, the per-region counters, the event count and the cost
// ledger — everything a cache hit needs to equal a fresh run.
constexpr uint64_t kTraceCacheMagic = 0x37765F6563727463ull;  // "ctrce_v7".

// The four record sizes, 16 bits each: a file written by a build with another
// record layout is a miss.
constexpr uint64_t kRecordLayout =
    sizeof(trace::RequestRecord) | sizeof(trace::ColdStartRecord) << 16 |
    sizeof(trace::FunctionRecord) << 32 | sizeof(trace::PodLifetimeRecord) << 48;

// The tables go to disk straight from the store; only the small trailing
// fields are built in memory.
bool WriteTraceCache(const std::string& path, const ExperimentResult& result) {
  const trace::TraceStore& store = result.store;
  ByteWriter tail;
  tail.I64(store.horizon());
  tail.U64(result.visible_cold_starts.size());
  for (const auto counter : kRegionCounters) {
    for (const int64_t v : result.*counter) {
      tail.I64(v);
    }
  }
  tail.U64(result.events_processed);
  result.cost_ledger.SaveState(tail);
  const TableSpans tables(store, TableRows{});
  std::vector<std::string_view> spans = {
      {reinterpret_cast<const char*>(&kRecordLayout), sizeof(kRecordLayout)}};
  tables.AppendTo(spans);
  spans.push_back(tail.data());
  return WriteFramedFile(path, kTraceCacheMagic, spans);
}

// Reads the cache file at `path` into `result`, each table straight into its
// vector. kMissing and kCorrupt as for any frame; a payload written under
// another record layout or region count is kCorrupt too, so the caller
// recomputes either way.
FrameStatus ReadTraceCache(const std::string& path, size_t num_regions,
                           ExperimentResult& result, const char** why) {
  FrameReader reader;
  const FrameStatus status = reader.Open(path, kTraceCacheMagic, why);
  if (status != FrameStatus::kOk) {
    return status;
  }
  static constexpr const char* kForeign =
      "payload from another record layout or region count";
  // Tables of another layout are never parsed.
  if (reader.U64() != kRecordLayout) {
    *why = reader.Damaged() ? "payload CRC mismatch" : kForeign;
    return FrameStatus::kCorrupt;
  }
  RecordTables tables;
  std::string tail_bytes;
  if (ReadTables(reader, tables)) {
    tail_bytes.resize(reader.Remaining());
    reader.Read(tail_bytes.data(), tail_bytes.size());
  }
  if (reader.Finish(why) != FrameStatus::kOk) {
    return FrameStatus::kCorrupt;
  }
  ByteReader tail(tail_bytes);
  const SimTime horizon = tail.I64();
  if (tail.U64() != num_regions) {
    *why = kForeign;
    return FrameStatus::kCorrupt;
  }
  for (const auto counter : kRegionCounters) {
    (result.*counter).resize(num_regions);
    for (int64_t& v : result.*counter) {
      v = tail.I64();
    }
  }
  result.events_processed = tail.U64();
  result.cost_ledger.RestoreState(tail);
  if (!tail.AtEnd()) {
    *why = kForeign;
    return FrameStatus::kCorrupt;
  }
  tables.Install(result.store, horizon);
  return FrameStatus::kOk;
}

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
  if (plan.num_shards == 1) {
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

// Per region, what the platform counted equals what its sink recorded: the
// kStreaming region counters (zero in kFull) plus counts over the kFull tables
// (empty in kStreaming). Three laws hold at any day boundary, so interrupted
// runs are checked too: the visible cold-start count and latency sum advance
// together at every cold start, and the ledger's pod time is the sum of the
// pod records' lifetimes, Σ(death_time − cold_start_begin), because KillPod
// emits the record and charges the ledger together. At the end of a completed
// run (Finalize flushed every alive pod, so every pod ever created has its
// lifetime record) there is one pod record per visible cold start or prewarm
// spawn and, when requests are recorded, one request record per request a pod
// served.
void CheckConservation(const ExperimentResult& result, bool record_requests) {
  std::vector<trace::StreamCounters> sunk(result.visible_cold_starts.size());
  for (size_t r = 0; r < sunk.size(); ++r) {
    sunk[r] = result.streaming.region(static_cast<trace::RegionId>(r));
  }
  for (const trace::ColdStartRecord& rec : result.store.cold_starts()) {
    sunk.at(rec.region).cold_starts += 1;
    sunk.at(rec.region).cold_start_latency_sum_us += rec.cold_start_us;
  }
  for (const trace::PodLifetimeRecord& rec : result.store.pods()) {
    sunk.at(rec.region).pods += 1;
    sunk.at(rec.region).pod_lifetime_sum_us +=
        static_cast<uint64_t>(rec.death_time - rec.cold_start_begin);
    sunk.at(rec.region).pod_requests_served += rec.requests_served;
  }
  const bool completed = result.interrupted_at_day < 0;
  if (completed && record_requests) {
    for (const trace::RequestRecord& rec : result.store.requests()) {
      sunk.at(rec.region).requests += 1;
    }
  }
  for (size_t r = 0; r < sunk.size(); ++r) {
    COLDSTART_CHECK_EQ(static_cast<uint64_t>(result.visible_cold_starts[r]),
                       sunk[r].cold_starts);
    COLDSTART_CHECK_EQ(static_cast<uint64_t>(result.cold_start_latency_sum_us[r]),
                       sunk[r].cold_start_latency_sum_us);
    COLDSTART_CHECK_EQ(result.cost_ledger.region_record(static_cast<trace::RegionId>(r)).pod_us,
                       static_cast<__int128>(sunk[r].pod_lifetime_sum_us));
    if (!completed) {
      continue;
    }
    COLDSTART_CHECK_EQ(
        static_cast<uint64_t>(result.visible_cold_starts[r] + result.prewarm_spawns[r]),
        sunk[r].pods);
    if (record_requests) {
      COLDSTART_CHECK_EQ(sunk[r].pod_requests_served, sunk[r].requests);
    }
  }
}

}  // namespace

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
  // Honor the caller's thread count as-is: the shard loop runs correctly on
  // one worker (shards execute sequentially), so an explicit num_threads=1
  // must not be silently promoted to 2.
  return Execute(policy, num_threads, checkpoint, &manifest, dir);
}

std::string Experiment::CheckResumable(const std::string& dir, bool* resuming) const {
  if (resuming != nullptr) {
    *resuming = false;
  }
  // A file an older (or newer) build wrote is refused as such, not read as
  // corrupt.
  const auto other_version = [&dir](const std::string& file) {
    return dir + " holds a checkpoint of another format version (" + file +
           "); use a fresh directory";
  };
  if (checkpoint::ReadManifestVersion(dir) == checkpoint::CheckpointVersion::kOther) {
    return other_version(
        std::filesystem::path(checkpoint::ManifestPath(dir)).filename().string());
  }
  checkpoint::Manifest manifest;
  if (!checkpoint::ReadManifest(dir, &manifest)) {
    return "";
  }
  const char* mismatch = nullptr;
  if (manifest.fingerprint != config_.Fingerprint()) {
    mismatch = "scenario fingerprint";
  } else if (manifest.trace_mode != static_cast<uint8_t>(config_.trace_mode)) {
    mismatch = "trace mode";
  } else if (manifest.num_regions != config_.profiles.size()) {
    mismatch = "region count";
  }
  if (mismatch != nullptr) {
    return dir + " holds a checkpoint of another run (" + mismatch +
           " differs); use a fresh directory";
  }
  for (uint32_t s = 0; s < manifest.days.size(); ++s) {
    if (manifest.days[s] == 0) {
      continue;
    }
    const std::string file = checkpoint::CheckpointFileName(manifest.days[s], s);
    if (checkpoint::ReadCheckpointVersion(dir + "/" + file) ==
        checkpoint::CheckpointVersion::kOther) {
      return other_version(file);
    }
  }
  if (resuming != nullptr) {
    *resuming = true;
  }
  return "";
}

ExperimentResult Experiment::Execute(platform::PlatformPolicy* policy, int num_threads,
                                     const CheckpointPolicy* checkpoint,
                                     const checkpoint::Manifest* resume,
                                     const std::string& resume_dir) const {
  const int threads =
      num_threads > 0 ? num_threads : ParallelSweep::DefaultThreads();
  ShardPlan plan = PlanShards(config_, policy, threads, checkpoint, resume);
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
    committer.emplace(*checkpoint, fingerprint, static_cast<uint8_t>(config_.trace_mode),
                      static_cast<uint32_t>(regions),
                      resume != nullptr ? resume->days
                                        : std::vector<int64_t>(plan.num_shards, 0));
  }

  // One result per shard: own simulator, own platform, own sink. Shards start
  // largest first and fold into `result` as each one finishes, so the run
  // holds O(workers) shard results, never O(shards). Under a policy, each
  // shard clones it as it starts and drops the clone once folded, so the run
  // holds O(workers) clones too. The fold hands each clone's counters back to
  // the caller's prototype, so policy statistics (prewarms_issued() and
  // friends) read the same whether the run sharded or not. Shards share only
  // immutable inputs, the mutex-guarded committer and the mutex-guarded fold
  // (cloning takes the fold's lock, so it never reads the prototype while
  // AbsorbShardStats writes it), so they are free of data races by
  // construction; the TSan job pins that. The stop flag is global, but shards
  // notice it at their own next day boundary, so an interrupted sharded run's
  // shards may rest at different days — the manifest keeps one per shard.
  const bool sharded = plan.num_shards > 1;
  ExperimentResult result;
  size_t folded = 0;
  std::mutex fold_mu;
  ParallelSweep sweep(threads);
  for (const size_t s : DispatchOrder(plan, population, function_cells.get(), cells)) {
    sweep.Add([&, s] {
      ExperimentResult out;
      const auto id = static_cast<uint32_t>(s);
      std::unique_ptr<platform::PlatformPolicy> clone;
      if (sharded && policy != nullptr) {
        std::lock_guard<std::mutex> lock(fold_mu);
        clone = plan.probe != nullptr ? std::move(plan.probe) : policy->CloneForShard();
        COLDSTART_CHECK(clone != nullptr);
      }
      platform::PlatformPolicy* shard_policy = clone != nullptr ? clone.get() : policy;
      trace::TraceSink& sink = streaming ? static_cast<trace::TraceSink&>(out.streaming)
                                         : static_cast<trace::TraceSink&>(out.store);
      const int64_t start_day = resume != nullptr ? resume->days[id] : 0;
      platform::Platform::Options options = PlatformOptions(config_);
      options.function_cells = function_cells;
      options.resuming = start_day > 0;
      sim::Simulator sim;
      platform::Platform platform(population, profiles, calendar, sim, sink, options,
                                  shard_policy);
      // K == 1: region filter only, the per-region partition. K > 1: the
      // region's cells split into K contiguous groups — group g simulates cells
      // [g * cells / K, (g + 1) * cells / K).
      std::optional<trace::RegionId> region;
      std::optional<workload::CellSlice> slice;
      if (sharded) {
        region = static_cast<trace::RegionId>(s / plan.k);
        const auto group = static_cast<uint32_t>(s % plan.k);
        if (plan.k > 1) {
          slice = workload::CellSlice{function_cells, group * cells / plan.k,
                                      (group + 1) * cells / plan.k};
        }
      }
      auto stream = config_.workload_source().OpenStream(population, profiles, calendar,
                                                         config_.seed, region, slice);
      SegmentLog segments;
      if (start_day > 0) {
        RestoreShard(resume_dir, start_day, fingerprint,
                     static_cast<uint8_t>(config_.trace_mode), static_cast<uint32_t>(regions),
                     id, sim, shard_policy, streaming, out.store, out.streaming, segments,
                     platform, std::move(stream));
      } else {
        platform.AttachArrivalStream(std::move(stream));
      }
      std::function<void(int64_t)> commit;
      if (committer) {
        // Segment, then checkpoint file, then manifest: a kill between any two
        // leaves the previous committed state plus files nothing references.
        commit = [&](int64_t day) {
          if (!streaming) {
            AppendSegment(checkpoint->dir, day, id, out.store, segments);
          }
          committer->Commit(day, id,
                            BuildCheckpointPayload(sim, shard_policy, streaming, out.store,
                                                   out.streaming, segments, platform));
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
      if (clone != nullptr) {
        policy->AbsorbShardStats(*clone);
      }
    });
  }
  sweep.Run();
  CheckConservation(result, config_.record_requests);
  // A completed run seals. An interrupted sharded run's partial store is put
  // in the same canonical order, so it reads the same whatever order its
  // shards finished in; a one-shard run's emission order already does.
  if (result.interrupted_at_day < 0 || sharded) {
    result.store.Seal();  // No-op in streaming mode (the store stayed empty).
  }
  result.mode = config_.trace_mode;
  result.shards = plan.num_shards;
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
  // v9 filename scheme: v7 moved the file into the shared frame
  // (common/framed_file.h), v8 went with fingerprint salt v7 (the ziggurat
  // sampler) and v9 with salt v8 (requests bound whole at dispatch), so files
  // written under older schemes are never picked up.
  char name[64];
  std::snprintf(name, sizeof(name), "scenario_v9_%016" PRIx64 ".bin",
                config_.Fingerprint());
  const std::string path = (fs::path(cache_dir) / name).string();

  {
    ExperimentResult result;
    const char* why = nullptr;
    const FrameStatus status =
        ReadTraceCache(path, config_.profiles.size(), result, &why);
    if (status == FrameStatus::kOk) {
      result.store.Seal();
      result.from_cache = true;
      return result;
    }
    if (status != FrameStatus::kMissing) {
      std::fprintf(stderr, "trace cache %s: %s, recomputing\n", path.c_str(), why);
    }
  }

  ExperimentResult result = Run(nullptr);
  std::error_code ec;
  fs::create_directories(cache_dir, ec);
  if (!WriteTraceCache(path, result)) {
    std::fprintf(stderr, "warning: failed to write trace cache at %s\n", path.c_str());
  }
  return result;
}

}  // namespace coldstart::core
