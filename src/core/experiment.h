// Experiment runner: produce workload -> simulate platform -> hand back traces.
//
// Arrivals come from the scenario's WorkloadSource (synthetic generator by
// default; a ReplaySource streams a recorded trace instead — the runner treats
// both identically, including region sharding).
//
// Run() executes the full pipeline through one executor over a shard plan: one
// Simulator + Platform per shard, with per-shard RNG substreams and id
// namespaces, merged back into a single result. The whole-run plan is one shard
// spanning every region, fed by the unfiltered arrival stream and driven by the
// caller's own policy. When the scenario has several regions and the policy is
// region-local (the baseline always is), the plan shards instead, and the
// merged result is bit-identical to the whole-run plan's. A shard is then a
// (region, cell group) slice: the planner splits each region into K groups,
// where K = cells when the policy is function-local, 1 when it is
// capacity-coupled, and as checkpointed on resume (docs/determinism.md
// "Sub-region sharding"). The geometry is the scenario's, whatever the thread
// count, so a checkpoint resumes at any thread count. Shards start largest
// first (by expected requests per day) and fold into the result as each one
// finishes. On one thread the shards run back to back, and the plan shards
// only where shards fold for free (a kStreaming sink, no CheckpointPolicy); a
// one-thread kFull or checkpointed run takes the whole-run plan. Cross-region
// policies (and policies that cannot clone per-shard state) get the whole-run
// plan at any thread count. Thread count: $COLDSTART_THREADS, else
// hardware_concurrency.
//
// Trace recording obeys config.trace_mode: kFull materializes the exact record
// tables in result.store; kStreaming folds records into result.streaming in O(1)
// trace memory (every streaming accumulator is an integer sum, count, min or
// max, so counters, latency sums, and histogram bucket contents are identical at
// any thread count and in any fold order — same determinism contract as the
// full-trace path). Arrivals are pulled
// from the workload source one day chunk at a time (workload/arrival_stream.h) —
// never materialized — so a kStreaming run's total memory is O(1) in the horizon:
// a year costs no more resident memory than a week (docs/architecture.md).
//
// RunCached() additionally persists the baseline (policy-free) trace — including the
// per-region platform aggregates — keyed by the scenario fingerprint, so the many
// bench binaries that analyze the same scenario simulate it only once and a cache
// hit is indistinguishable from a fresh run.
#ifndef COLDSTART_CORE_EXPERIMENT_H_
#define COLDSTART_CORE_EXPERIMENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/scenario.h"
#include "platform/platform.h"
#include "trace/streaming_aggregates.h"
#include "trace/trace_store.h"

namespace coldstart::core {

// Day-boundary checkpointing for crash-safe long runs. When passed to Run()
// (or ResumeFrom()), the runner snapshots its full state into `dir` every
// `every_n_days` completed days: a kill at any instant loses at most the work
// since the last committed checkpoint, and ResumeFrom() continues the run to a
// final trace bit-identical to the uninterrupted one. Works serial and
// sharded (one checkpoint stream per shard, merged manifest). Requires a
// checkpointable policy (SavePolicyState) when a policy is attached —
// enforced loudly up front, not at the first checkpoint.
struct CheckpointPolicy {
  int every_n_days = 1;
  std::string dir;
  // Test/driver hook, fired after each (day, shard) checkpoint family commits
  // (checkpoint file + manifest both durable). Sharded runs fire it from
  // worker threads — keep it thread-safe.
  std::function<void(int64_t day, uint32_t shard)> on_checkpoint;
  // Cooperative stop (e.g. wired to a SIGINT flag): checked at every day
  // boundary; when set, the run checkpoints, stops early, and reports the
  // boundary in ExperimentResult::interrupted_at_day.
  const std::atomic<bool>* stop = nullptr;
};

struct ExperimentResult {
  TraceMode mode = TraceMode::kFull;
  // kFull: sealed, horizon set. kStreaming: left empty — `streaming` holds the run.
  trace::TraceStore store;
  // kStreaming: per-region/per-trigger-group counters + histograms, folded across
  // shards. kFull: empty (derive with trace::AggregatesFromStore).
  trace::StreamingAggregates streaming;
  workload::Population population;    // Empty when loaded from cache.
  bool from_cache = false;

  // Platform statistics, one entry per region. Restored from the cache file on
  // cache hits, so cached and fresh results are interchangeable.
  std::vector<int64_t> visible_cold_starts;
  std::vector<int64_t> prewarm_spawns;
  std::vector<int64_t> delayed_allocations;
  std::vector<int64_t> scratch_allocations;   // Pool misses.
  std::vector<int64_t> cold_start_latency_sum_us;
  // Resource-cost ledger (pod-seconds, warm-idle, snapshot MB·s, from-scratch
  // creations), merged from shards by exact integer addition — bit-identical at
  // any thread count, and restored from the cache file on cache hits.
  platform::ResourceCostLedger cost_ledger;
  // Total simulator events. Note: a sharded run processes a handful more events
  // than a whole-run one (per-shard day starts and policy ticks), and a
  // one-thread kStreaming run without checkpoints shards too; the traces and the
  // per-region aggregates above are nevertheless identical. A trace-cache hit
  // returns the count the writing build stored, so a file written by a build
  // that still queued cancelled keep-alives and load decrements reports more
  // events than a fresh run (the traces are identical).
  uint64_t events_processed = 0;
  // Shards in the run's plan: 1 for the whole-run plan, regions x K when it
  // shards. 0 on a trace-cache hit, which runs no plan.
  size_t shards = 0;
  double sim_wall_seconds = 0;
  // -1: the run completed (Finalize ran, the store is sealed). Otherwise the
  // day boundary where a CheckpointPolicy stop flag ended the run early; the
  // trace is partial and a checkpoint for that day was committed. A sharded
  // run's partial store is still in canonical (sealed) order, so it does not
  // depend on the order its shards finished in.
  int64_t interrupted_at_day = -1;
};

class Experiment {
 public:
  explicit Experiment(ScenarioConfig config) : config_(std::move(config)) {}

  const ScenarioConfig& config() const { return config_; }

  // Runs the scenario (optionally under a policy). Deterministic in the config:
  // the whole-run and the shard plan produce bit-identical sealed traces, so the
  // thread count never changes results. num_threads: 0 = default
  // ($COLDSTART_THREADS, else hardware_concurrency), 1 = one thread (shards, if
  // the plan has several, run back to back), n = cap.
  // With a CheckpointPolicy the run additionally snapshots its state at day
  // boundaries (same results — checkpointing never perturbs the simulation).
  ExperimentResult Run(platform::PlatformPolicy* policy = nullptr,
                       int num_threads = 0,
                       const CheckpointPolicy* checkpoint = nullptr) const;

  // Resumes a run from the latest committed checkpoints in `dir` and carries
  // it to completion (or to the next stop). The config and policy must match
  // the checkpointed run — fingerprint and policy checkpointability are
  // CHECKed. The execution mode follows the manifest: a sharded checkpoint
  // resumes sharded with the checkpointed shards_per_region geometry, a serial
  // one resumes serially; manifest entries outside that geometry (stale shard
  // ids from a different K, duplicates) abort loudly. num_threads is honored
  // as given: the geometry comes from the manifest, so a sharded checkpoint
  // resumes at any thread count, one worker included.
  // The completed result is bit-identical to the uninterrupted run's.
  ExperimentResult ResumeFrom(const std::string& dir,
                              platform::PlatformPolicy* policy = nullptr,
                              int num_threads = 0,
                              const CheckpointPolicy* checkpoint = nullptr) const;

  // The preflight for a checkpoint directory that came from outside, which
  // ResumeFrom's CHECKs stand behind. Returns "" when `dir` holds no manifest
  // (a checkpointed Run() starts it fresh) or a checkpoint of this run
  // (ResumeFrom continues it). Otherwise returns a one-line refusal that names
  // what differs: a manifest or day file of another format version, or another
  // scenario fingerprint, trace mode or region count. `resuming`, if given, is
  // set to whether `dir` holds a checkpoint of this run (ResumeFrom, not Run).
  std::string CheckResumable(const std::string& dir, bool* resuming = nullptr) const;

  // True when the shard planner gives Run(policy) a sharded plan at any thread
  // budget above one (and at one thread too for a kStreaming run without
  // checkpoints): multiple regions (or cells_per_region > 1 with a
  // function-local policy) and a policy that is region-local and
  // shard-clonable (or no policy at all).
  bool CanShard(platform::PlatformPolicy* policy) const;

  // Baseline run with trace caching under `cache_dir`. Policy runs must use Run()
  // (policies change the trace, which would poison the cache) — enforced: passing a
  // non-null policy CHECK-fails rather than silently contaminating the cache. The
  // defaulted parameter exists only to make that misuse loud. Requires
  // TraceMode::kFull (the cache persists full traces).
  ExperimentResult RunCached(const std::string& cache_dir,
                             platform::PlatformPolicy* policy = nullptr) const;

  // Default cache directory: $COLDSTART_CACHE_DIR or ./coldstart_cache.
  static std::string DefaultCacheDir();

 private:
  // The one executor: plans the shards (the whole-run shard, or regions x K
  // (region, cell group) shards), runs them largest first on `threads`
  // workers and folds each result in as its shard finishes. num_threads as
  // for Run(). `resume` (with `resume_dir`)
  // restores each shard from its manifest entry before running; null means a
  // fresh run from day 0.
  ExperimentResult Execute(platform::PlatformPolicy* policy, int num_threads,
                           const CheckpointPolicy* checkpoint,
                           const checkpoint::Manifest* resume,
                           const std::string& resume_dir) const;

  ScenarioConfig config_;
};

// The exact workload a Run() of `config` consumes, as a pull-based day-chunked
// stream: the population plus an open ArrivalStream over it, regenerated
// deterministically from the config. This is the O(busiest-day)-memory path the
// export drivers use to write arbitrarily long arrival logs. The stream borrows
// `population`; keep the struct alive while draining it (moving the struct is
// fine — the stream points into the population's heap buffers, which moves
// preserve).
struct WorkloadStream {
  workload::Population population;
  std::unique_ptr<workload::ArrivalStream> arrivals;
};
WorkloadStream OpenWorkloadStream(const ScenarioConfig& config);

// Eager variant: the full sorted arrival vector (the concatenation of
// OpenWorkloadStream's chunks — bit-identical by the ArrivalStream contract).
// Deliberately still materialized: its callers are tests and drivers that need
// random access to the whole stream (round-trip equality asserts, rate-scaled
// comparisons) on short horizons. Costs ~16 bytes/arrival — for anything
// long-horizon or summary-only, use OpenWorkloadStream (or just Run(), which
// never materializes arrivals).
struct WorkloadSnapshot {
  workload::Population population;
  std::vector<workload::ArrivalEvent> arrivals;
};
WorkloadSnapshot SnapshotWorkload(const ScenarioConfig& config);

}  // namespace coldstart::core

#endif  // COLDSTART_CORE_EXPERIMENT_H_
