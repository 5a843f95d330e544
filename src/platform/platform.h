// The multi-region serverless platform (YuanRong-like; Fig. 2 life cycle).
//
// One Platform instance hosts all five regions: per-region resource pools, cold-start
// models (coldstart_model.h; the YuanRong pipeline by default, provider presets and
// snapshot restore via RegionProfile::model), and load state, plus per-function pod
// sets with keep-alive management and a per-region resource-cost ledger.
// Driven by a Simulator; emits the Table 1 trace streams into a TraceSink (an exact
// TraceStore, or a StreamingAggregates for O(1)-memory runs).
//
// Request path: arrival -> (optional policy admission delay for async triggers) ->
// find a pod with a free concurrency slot (warm preferred, warming accepted) ->
// otherwise cold start: draw a pod through the staged pool search, run the 4-component
// pipeline, and bind the request to the pod's ready time. Completions update
// keep-alive state and fan out workflow children.
//
// Region independence: all randomness flows through per-(region, cell) RNG
// substreams (forked from the seed by region index, then by capacity cell when
// cells_per_region > 1) and pod/request ids are drawn from per-(region, cell)
// namespaces. A platform that only ever sees one region's (or one cell group's)
// arrivals therefore emits exactly the records the full serial platform emits
// for those functions — the invariant core::Experiment's sharded runner is
// built on.
#ifndef COLDSTART_PLATFORM_PLATFORM_H_
#define COLDSTART_PLATFORM_PLATFORM_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/byte_serde.h"
#include "platform/coldstart_model.h"
#include "platform/cost_ledger.h"
#include "platform/load_state.h"
#include "platform/pod_slab.h"
#include "platform/policy_hooks.h"
#include "platform/resource_pool.h"
#include "sim/simulator.h"
#include "trace/trace_sink.h"
#include "workload/arrivals.h"
#include "workload/function_cells.h"

namespace coldstart::platform {

// A pod instance (warming or warm). Pods live in a Slab<Pod>; `self` is the
// generation-checked handle in-flight events use to re-find the pod. The three
// fields the request path touches per event — readiness, free concurrency
// slots, idle-LRU recency — live in the parallel PodHot array (SoA, indexed by
// slab slot), not here: FindPodWithSlot scans hot entries without dragging the
// cold identity/bookkeeping fields through the cache.
struct Pod {
  SlabHandle self;
  trace::PodId id = 0;
  trace::FunctionId function = 0;
  trace::RegionId region = 0;
  trace::ClusterId cluster = 0;
  trace::ResourceConfig config = trace::ResourceConfig::k300m128;
  SimTime cold_start_begin = 0;
  uint32_t cold_start_us = 0;
  uint32_t served = 0;
  bool prewarmed = false;
  // Accumulated warm-idle time (µs): completed idle intervals between busy
  // periods; the final idle tail is added at death. Feeds the cost ledger.
  int64_t idle_us = 0;
  // The pod's keep-alive entry in the platform's pending-event table. It
  // resolves exactly while the pod is idle: a request cancels it by freeing
  // the entry, and completion of the last request arms a new one.
  SlabHandle keep_alive;
};

// The per-pod state the arrival hot path reads and writes, split out of Pod
// into a dense slot-indexed array. slots_used counts requests bound to the
// pod, whether executing or waiting for readiness.
struct PodHot {
  SimTime ready_time = 0;
  SimTime last_busy_end = 0;
  int slots_used = 0;
};

// Pod ids carry their region in the high bits so per-region id streams never collide
// and a sharded run mints exactly the ids the serial run would have minted. With
// cells_per_region > 1 the cell index is packed directly below the region bits
// (see Platform::cell_bits_), shrinking the per-cell sequence space accordingly.
inline constexpr int kPodIdRegionShift = 28;
inline constexpr trace::PodId kPodIdSeqMask = (trace::PodId{1} << kPodIdRegionShift) - 1;

class Platform {
 public:
  struct Options {
    uint64_t seed = 1;
    bool record_requests = true;
    // Baseline keep-alive when no policy overrides it (§2.2: one minute).
    SimDuration default_keep_alive = kMinute;
    // Construction for a checkpoint restore: skip the side effects a fresh run
    // performs up front (function-table emission into the sink, the initial
    // policy-tick schedule) — the restored state already accounts for them.
    bool resuming = false;
    // Capacity cells per region (ScenarioConfig::cells_per_region). 1 keeps the
    // paper's one-pool-per-region model and the legacy RNG/id streams bit for
    // bit. Values > 1 decompose every capacity-coupled structure (pools, load
    // state, RNG substreams, pod/request id namespaces) into independent cells
    // keyed by `function_cells`, which must then be non-null and map every
    // function id to its cell (workload/function_cells.h).
    uint32_t cells_per_region = 1;
    std::shared_ptr<const std::vector<uint32_t>> function_cells;
  };

  // `sink` receives every emitted record: a TraceStore for exact full-trace runs,
  // a StreamingAggregates for O(1)-memory streaming runs (or any custom sink).
  Platform(const workload::Population& population,
           const std::vector<workload::RegionProfile>& profiles,
           const workload::Calendar& calendar, sim::Simulator& sim,
           trace::TraceSink& sink, Options options,
           PlatformPolicy* policy = nullptr);
  // The Simulator must outlive the Platform: the destructor detaches the
  // arrival cursor from `sim` so no dangling EventSource is left behind.
  ~Platform();

  // Attaches the run's arrival stream. Takes ownership; call at most once,
  // before RunUntil. One starter event per day boundary pulls that day's chunk
  // from the stream, reserves the batch's contiguous (time, seq) keys, and opens
  // the cursor over it — so at any instant the platform holds one day of
  // arrivals, never the whole horizon, and arrivals are never materialized as
  // queued closures. The chunk sequence must honor the ArrivalStream contract
  // (day-ordered, per-day (time, function)-sorted, in-window — CHECKed here);
  // see docs/determinism.md for why the day-anchored seq reservation makes the
  // event total order identical to per-arrival scheduling.
  void AttachArrivalStream(std::unique_ptr<workload::ArrivalStream> stream);

  // Writes function records + flushes still-alive pods; call once after the run.
  void Finalize();

  // --- Checkpoint support (src/checkpoint/). ---
  // Serializes the platform's full mutable state. Valid only at a quiescent day
  // boundary (clock at day * kDay - 1: the previous day's chunk fully drained,
  // every pending event reconstructible from the bookkeeping below) — CHECKed.
  // The payload covers RNGs, id namespaces, load/pool state, the pod slab (with
  // per-function pod-list order), the pending-event table, the arrival stream's
  // state, and the day-starter and minute-tick keys. Policy and sink state are
  // serialized by the caller (core::Experiment), which owns those objects.
  void SaveCheckpointState(ByteWriter& w) const;
  // Mirror of SaveCheckpointState on a freshly constructed platform (with
  // Options.resuming set). Restores state, re-queues every pending event under
  // its original (time, seq) key, and attaches `stream` with its cursor state
  // restored. Call after sim.RestoreClock().
  void RestoreCheckpointState(ByteReader& r,
                              std::unique_ptr<workload::ArrivalStream> stream);

  // --- Policy-facing API. ---
  // Starts a pod for `function` in `region` with no triggering request. The pod's
  // cold start is not a user-visible cold start (it is counted in prewarm_spawns).
  // `initial_keep_alive` is how long the idle prewarmed pod survives awaiting traffic.
  void SpawnPrewarmedPod(trace::FunctionId function, trace::RegionId region,
                         SimDuration initial_keep_alive);
  // SpawnPrewarmedPod at time `at` (>= now), skipped when the function then
  // already has a pod with a free slot. The pending spawn is a platform event,
  // so it survives a checkpoint; policies schedule no closures of their own.
  void SpawnPrewarmedPodAt(SimTime at, trace::FunctionId function,
                           trace::RegionId region, SimDuration initial_keep_alive);
  // The region's one pool of `config`. It exists only when cells_per_region == 1
  // (CHECKed): a policy that sizes pools must refuse other geometries itself.
  ResourcePool& pool(trace::RegionId region, trace::ResourceConfig config);
  uint32_t cells_per_region() const { return cells_; }
  const workload::FunctionSpec& spec(trace::FunctionId function) const;
  // True when the function has a pod that is (or will be) able to take a request:
  // ready (or warming) with a free concurrency slot.
  bool HasAvailablePod(trace::FunctionId function) const;
  int alive_pod_count(trace::FunctionId function) const;
  const std::vector<workload::RegionProfile>& profiles() const { return profiles_; }

  // --- Stats. ---
  // User-visible cold starts per region (excludes prewarm spawns).
  int64_t cold_starts(trace::RegionId region) const;
  int64_t total_cold_starts() const;
  uint64_t pods_created() const;
  // Sum over user-visible cold starts of total cold-start latency, per region (µs).
  int64_t cold_start_latency_sum_us(trace::RegionId region) const;
  // From-scratch pod creations (pool misses) across the region's pools (all cells).
  int64_t scratch_allocations(trace::RegionId region) const;
  // Region-level load counters, summed over the region's cells.
  int64_t prewarm_spawns(trace::RegionId region) const {
    return SumOverCells(region, &RegionLoadState::prewarm_spawns);
  }
  int64_t delayed_allocations(trace::RegionId region) const {
    return SumOverCells(region, &RegionLoadState::delayed_allocations);
  }
  int64_t active_cold_starts(trace::RegionId region) const {
    return SumOverCells(region, &RegionLoadState::active_cold_starts);
  }
  // Resource-cost accumulators (pod-seconds, warm-idle-seconds, snapshot MB·s,
  // from-scratch creations), per region; order-invariant integer sums so serial
  // and sharded runs agree bit for bit. Finalize() also emits the totals into
  // the sink (TraceSink::OnRegionCost).
  const ResourceCostLedger& cost_ledger() const { return cost_ledger_; }

 private:
  struct FunctionState {
    std::vector<Pod*> pods;  // Alive pods (warming or warm), any region.
    double log_exec_median_us = 0;  // log(exec_median_us), computed once.
  };

  // Streams the current day's chunk as a sim::EventSource. Day starters call
  // Open() with a freshly reserved seq range, so each arrival carries exactly the
  // (time, seq) key a per-arrival closure would have had — the event total order
  // (and thus every downstream RNG draw) is unchanged.
  class ArrivalCursor : public sim::EventSource {
   public:
    explicit ArrivalCursor(Platform* platform) : platform_(platform) {}
    // Opens the cursor over platform_->chunk_.events[0, count); the previous
    // chunk must be fully drained (day batches never overlap).
    void Open(size_t count, uint64_t seq_base);
    bool Head(SimTime* time, uint64_t* seq) override;
    void RunHead() override;
    // Checkpoint support: the sorted-contract guard is the cursor's only state
    // that survives a drained chunk (next_ == limit_ at every day boundary).
    SimTime last_time() const { return last_time_; }
    void RestoreGuard(SimTime last_time) { last_time_ = last_time; }
    bool drained() const { return next_ == limit_; }

   private:
    Platform* platform_;
    size_t next_ = 0;
    size_t limit_ = 0;
    uint64_t seq_base_ = 0;
    SimTime last_time_ = 0;  // Guards the sorted-arrivals stream contract.
  };

  // --- Capacity-cell plumbing. ---
  // All capacity-coupled mutable state (RNGs, pools, loads, id namespaces) is
  // stored per (region, cell), flattened as region * cells_ + cell. At the
  // default cells_ == 1 every helper degenerates to the legacy per-region
  // behavior bit for bit (cell 0, StateIndex == region).
  uint32_t CellOf(trace::FunctionId fid) const {
    return cells_ == 1 ? 0 : (*options_.function_cells)[fid];
  }
  size_t StateIndex(trace::RegionId region, uint32_t cell) const {
    return static_cast<size_t>(region) * cells_ + cell;
  }
  template <typename T>
  int64_t SumOverCells(trace::RegionId region, T RegionLoadState::*counter) const {
    int64_t total = 0;
    for (uint32_t cell = 0; cell < cells_; ++cell) {
      total += loads_.at(StateIndex(region, cell)).*counter;
    }
    return total;
  }
  // The per-(region, cell) RNG substream; every draw the platform makes is
  // attributed to a cell so that sharded and serial runs consume identical
  // sequences.
  Rng& rng(trace::RegionId region, uint32_t cell) {
    return rngs_[StateIndex(region, cell)];
  }
  trace::PodId NewPodId(trace::RegionId region, uint32_t cell);
  // The pod's SoA hot entry (valid while the pod is alive in the slab).
  PodHot& hot(const Pod& pod) { return pod_hot_[pod.self.index]; }
  const PodHot& hot(const Pod& pod) const { return pod_hot_[pod.self.index]; }

  // Day-starter body: pulls day `day`'s chunk from arrival_stream_ into chunk_,
  // validates it against the stream contract, and opens the cursor over it.
  void OpenDayChunk(int64_t day);
  // Batched drain: dispatches `count` same-timestamp arrivals starting at
  // `events` (already (time, function)-sorted, so same-function arrivals are
  // contiguous), grouping them into per-function batches. HandleArrivalBatch is
  // the shared body: `count` arrivals of one function with the spec/state/cell
  // lookups done once; a deferred invoke is a batch of 1.
  void HandleArrivalRun(const workload::ArrivalEvent* events, size_t count);
  void HandleArrivalBatch(trace::FunctionId fid, size_t count, bool delay_exempt);
  // `concurrency` is the function's slot limit, hoisted by the caller so the
  // per-pod scan touches only the PodHot array.
  Pod* FindPodWithSlot(FunctionState& state, int concurrency, SimTime now) const;
  Pod* StartColdStart(const workload::FunctionSpec& spec, trace::RegionId region,
                      bool prewarmed, SimDuration extra_sched_us);
  void AssignRequest(Pod* pod, const workload::FunctionSpec& spec, SimTime arrival);
  void OnRequestComplete(SlabHandle handle, SimTime exec_start, SimTime exec_end,
                         const workload::FunctionSpec& spec);
  void ArmKeepAlive(Pod* pod, SimTime expiry);
  void KillPod(Pod* pod, SimTime death_time);
  trace::ClusterId PickCluster(const workload::FunctionSpec& spec,
                               const FunctionState& state, trace::RegionId region);

  // --- The pending-event table. ---
  // Every pending event that carries a payload is an entry in events_, and its
  // queued closure is only (this, entry handle). An event is live iff its entry
  // is alive: cancelling an event frees its entry, and the queued closure then
  // resolves to nothing. A checkpoint saves the table entry by entry and a
  // restore re-queues each entry under its original (time, seq) key. The table
  // is always on, so checkpointed and plain runs consume identical seqs.
  // Day starters and the minute tick carry no payload and keep scalar keys.
  enum class EventKind : uint8_t {
    kCompletion,     // A request of `function` on `pod` ends.
    kInvoke,         // One arrival of `function`, deferred: a workflow child
                     // or an admission retry (`delay_exempt`).
    kKeepAlive,      // Idle `pod` dies.
    kLoadDecrement,  // A `function` pod's cold start in `region` is ready.
    kPrewarm,        // SpawnPrewarmedPod(function, region, keep_alive).
  };
  struct PendingEvent {
    EventKind kind = EventKind::kCompletion;
    bool delay_exempt = false;
    trace::RegionId region = 0;
    trace::FunctionId function = 0;
    SimTime time = 0;
    uint64_t seq = 0;
    SlabHandle pod;
    SimTime exec_start = 0;      // kCompletion: the request ran [exec_start, time).
    SimDuration keep_alive = 0;  // kPrewarm.
  };
  // Allocates an entry of `kind` keyed (t, next seq) and queues its closure,
  // consuming exactly one seq. The caller fills the payload in place (building
  // it in a temporary and copying it in measured ~10% slower on month_serial).
  std::pair<PendingEvent*, SlabHandle> ScheduleEvent(EventKind kind, SimTime t);
  // The one closure body: resolves the entry, frees it, and runs its kind.
  void Fire(SlabHandle h);

  // Platform-managed minute tick: its (time, seq) is recorded so a checkpoint
  // restore can re-queue it. Fires OnMinuteTick then reschedules, consuming one
  // seq per tick.
  void SchedulePolicyTick(SimTime t);
  void RunPolicyTick();

  const workload::Population& population_;
  std::vector<workload::RegionProfile> profiles_;
  workload::Calendar calendar_;
  sim::Simulator& sim_;
  trace::TraceSink& sink_;
  // sink_.reads_request_resources(), cached: when false, the per-request CPU and
  // memory draws are discarded (same RNG words, no libm work).
  const bool draw_request_resources_;
  Options options_;
  PlatformPolicy* policy_;  // Not owned; may be null.

  std::vector<ColdStartModel> models_;                        // Per region.
  std::vector<std::vector<ResourcePool>> pools_;              // [StateIndex][config].
  std::vector<RegionLoadState> loads_;                        // Per (region, cell).
  std::vector<int64_t> visible_cold_starts_;                  // Per region.
  std::vector<int64_t> cold_start_latency_sum_us_;            // Per region.
  std::vector<FunctionState> states_;                         // Per function.
  std::unique_ptr<workload::ArrivalStream> arrival_stream_;   // Owned; pull-based.
  workload::ArrivalChunk chunk_;  // The one live day batch (capacity reused).
  ArrivalCursor arrival_cursor_;
  bool source_attached_ = false;
  Slab<Pod> pod_slab_;                                        // All alive pods.
  std::vector<PodHot> pod_hot_;  // SoA hot fields, indexed by slab slot.

  // Cell geometry, fixed at construction. pod_seq_bits_ is how many low bits of
  // a pod id hold the per-cell sequence number; the cell index sits directly
  // above it, below the region bits. At cells_ == 1, cell_bits_ == 0 and the
  // layout is the legacy (region << kPodIdRegionShift) | seq exactly.
  uint32_t cells_ = 1;
  uint32_t cell_bits_ = 0;
  uint32_t pod_seq_bits_ = kPodIdRegionShift;
  trace::PodId pod_seq_mask_ = kPodIdSeqMask;

  std::vector<Rng> rngs_;                 // Per (region, cell); forked from the seed.
  std::vector<trace::PodId> next_pod_seq_;      // Per (region, cell) pod-id namespace.
  std::vector<uint64_t> next_request_seq_;      // Per (region, cell) request-id namespace.

  ResourceCostLedger cost_ledger_;        // Per region; order-invariant sums.
  Slab<PendingEvent> events_;             // The pending-event table (above).
  uint64_t starter_seq_base_ = 0;         // Seq of day 0's starter event.
  int64_t num_starters_ = 0;              // Day starters scheduled at attach.
  SimTime policy_tick_time_ = -1;         // Next tick's (time, seq); -1 = none.
  uint64_t policy_tick_seq_ = 0;
};

}  // namespace coldstart::platform

#endif  // COLDSTART_PLATFORM_PLATFORM_H_
