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
// pipeline, and bind the request to the pod's ready time. Binding does all of the
// request's work at once: it draws the execution time, emits the request record,
// schedules the workflow children and, when the request ends last on its pod,
// moves the pod's keep-alive to the new idle start. No event marks a request's
// end: the slot it holds frees at its end time, and no event marks a cold
// start's end either: the load it adds is settled by its ready key (Cell).
//
// Region independence: every capacity-coupled piece of mutable state lives in
// one record per (region, capacity cell): its RNG substream (forked from the
// seed by region index, then by cell when cells_per_region > 1), its pod-id and
// request-id namespaces, its load state, its resource pools and its cold-start
// counters. A platform that only ever sees one region's (or one cell group's)
// arrivals therefore emits exactly the records the full serial platform emits
// for those functions — the invariant core::Experiment's sharded runner is
// built on.
#ifndef COLDSTART_PLATFORM_PLATFORM_H_
#define COLDSTART_PLATFORM_PLATFORM_H_

#include <array>
#include <cstdint>
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

// The most requests one pod may hold at once: the size of Pod::ends, and the
// largest pod_concurrency the population draws (1, 4, 6 or 10). The Platform
// constructor CHECKs every function's pod_concurrency against it. Each slot
// costs every pod 8 bytes, which a sharded run pays per shard's pod slab.
inline constexpr int kMaxPodConcurrency = 10;

// A pod instance (warming or warm). Pods live in a Slab<Pod>; `self` is the
// generation-checked handle in-flight events use to re-find the pod. The
// fields the request path reads per arrival — readiness, bound-slot count,
// earliest bound end, idle-LRU recency — live in the parallel PodHot array
// (SoA, indexed by slab slot), not here: FindPodWithSlot scans hot entries
// without dragging the cold identity/bookkeeping fields through the cache.
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
  // The pod's one keep-alive entry in the platform's pending-event table, due
  // at last_busy_end plus the keep-alive granted when the request ending there
  // was bound. A request that ends last on the pod re-keys it in place, so it
  // resolves for as long as the pod is alive and it is what kills the pod.
  SlabHandle keep_alive;
  // End times of the requests bound to the pod, ends[0, PodHot::slots_used),
  // in no particular order. An end <= now is a free slot that has not been
  // retired yet (FindPodWithSlot retires them when the pod looks full).
  std::array<SimTime, kMaxPodConcurrency> ends;
};

// PodHot::next_end of a pod with no bound request.
inline constexpr SimTime kNoBoundEnd = INT64_MAX;

// The per-pod state the arrival hot path reads and writes, split out of Pod
// into a dense slot-indexed array. slots_used counts the pod's bound ends,
// retired lazily: a request holds its slot until its end time, so the pod has
// a free slot at `now` iff slots_used < concurrency or next_end <= now.
struct PodHot {
  SimTime ready_time = 0;
  // The latest bound end (ready_time before the first request).
  SimTime last_busy_end = 0;
  // The earliest bound end.
  SimTime next_end = kNoBoundEnd;
  int slots_used = 0;
};

// Pod ids carry their region in the high bits so per-region id streams never collide
// and a sharded run mints exactly the ids the serial run would have minted. With
// cells_per_region > 1 the cell index is packed directly below the region bits
// (Platform::Cell::pod_id_prefix), shrinking the per-cell sequence space
// accordingly.
inline constexpr int kPodIdRegionShift = 28;
inline constexpr trace::PodId kPodIdSeqMask = (trace::PodId{1} << kPodIdRegionShift) - 1;

class Platform : private sim::EventTarget {
 public:
  struct Options {
    uint64_t seed = 1;
    bool record_requests = true;
    // Keep-alive when no policy is attached or the policy answers
    // PlatformPolicy::kDefaultKeepAlive (§2.2: one minute).
    SimDuration default_keep_alive = kMinute;
    // Construction for a checkpoint restore: skip the side effects a fresh run
    // performs up front (function-table emission into the sink, the first
    // policy tick) — the restored state already accounts for them.
    bool resuming = false;
    // Capacity cells per region (ScenarioConfig::cells_per_region). 1 keeps the
    // paper's one-pool-per-region model and the legacy RNG/id streams bit for
    // bit. Values > 1 give each region that many independent cell records
    // (RNG substream, pod/request id namespaces, load state, pools, cold-start
    // counters), keyed by `function_cells`, which must then be non-null and map
    // every function id to its cell (workload/function_cells.h).
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
  // platform and its arrival cursor from `sim` so no dangling EventTarget or
  // EventSource is left behind.
  ~Platform() override;

  // Attaches the run's arrival stream. Takes ownership; call at most once,
  // before RunUntil. One day-start event per day boundary pulls that day's chunk
  // from the stream, reserves the batch's contiguous (time, seq) keys, and opens
  // the cursor over it — so at any instant the platform holds one day of
  // arrivals, never the whole horizon, and arrivals are never materialized as
  // queued events. The chunk sequence must honor the ArrivalStream contract
  // (day-ordered, per-day (time, function)-sorted, in-window — CHECKed here);
  // see docs/determinism.md for why the day-anchored seq reservation makes the
  // event total order identical to per-arrival scheduling.
  void AttachArrivalStream(std::unique_ptr<workload::ArrivalStream> stream);

  // Writes function records + flushes still-alive pods; call once after the run.
  void Finalize();

  // --- Checkpoint support (src/checkpoint/). ---
  // Serializes the platform's full mutable state. Valid only at a quiescent day
  // boundary (clock at day * kDay - 1: the previous day's chunk fully drained,
  // every pending event an entry of the pending-event table) — CHECKed.
  // The payload covers the cell table (with each cell's in-flight ready keys,
  // settled to the clock first), the cost ledger, the pod slab (with
  // per-function pod-list order), the pending-event table and the arrival
  // stream's state. Policy and sink state are serialized by the caller
  // (core::Experiment), which owns those objects.
  void SaveCheckpointState(ByteWriter& w) const;
  // Mirror of SaveCheckpointState on a freshly constructed platform (with
  // Options.resuming set). Restores state, re-queues every pending event under
  // its original (time, seq) key, and attaches `stream` with its cursor state
  // restored. Call after sim.RestoreClock(): each restored ready key must lie
  // after the clock with a seq below next_seq.
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
  // so it survives a checkpoint; policies schedule no events of their own.
  void SpawnPrewarmedPodAt(SimTime at, trace::FunctionId function,
                           trace::RegionId region, SimDuration initial_keep_alive);
  // The region's one pool of `config`. It exists only when cells_per_region == 1
  // (CHECKed): a policy that sizes pools must refuse other geometries itself.
  ResourcePool& pool(trace::RegionId region, trace::ResourceConfig config);
  uint32_t cells_per_region() const { return options_.cells_per_region; }
  // What a PlatformPolicy::kDefaultKeepAlive answer grants.
  SimDuration default_keep_alive() const { return options_.default_keep_alive; }
  const workload::FunctionSpec& spec(trace::FunctionId function) const;
  // True when the function has a pod that is (or will be) able to take a request:
  // ready (or warming) with a free concurrency slot now.
  bool HasAvailablePod(trace::FunctionId function) const;
  int alive_pod_count(trace::FunctionId function) const;
  const std::vector<workload::RegionProfile>& profiles() const { return profiles_; }

  // --- Stats. Per-region values sum the region's cells. ---
  // User-visible cold starts per region (excludes prewarm spawns).
  int64_t cold_starts(trace::RegionId region) const;
  int64_t total_cold_starts() const;
  uint64_t pods_created() const;
  // Sum over user-visible cold starts of total cold-start latency, per region (µs).
  int64_t cold_start_latency_sum_us(trace::RegionId region) const;
  // From-scratch pod creations (pool misses) across the region's pools.
  int64_t scratch_allocations(trace::RegionId region) const;
  int64_t prewarm_spawns(trace::RegionId region) const;
  int64_t delayed_allocations(trace::RegionId region) const;
  int64_t active_cold_starts(trace::RegionId region) const;
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

  // Streams the current day's chunk as a sim::EventSource. Day-start events call
  // Open() with a freshly reserved seq range, so each arrival carries exactly the
  // (time, seq) key a per-arrival event would have had — the event total order
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

  // One cold start in flight: the (ready time, seq) key at which its load
  // leaves the cell's counters, and whether it fetches a dependency layer.
  struct ReadyKey {
    SimTime time = 0;
    uint64_t seq = 0;
    bool has_deps = false;
  };
  // Min-heap order for std::push_heap/pop_heap: a is "less" when it is later.
  static bool ReadyLater(const ReadyKey& a, const ReadyKey& b) {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }

  // --- The cell table. ---
  // All capacity-coupled mutable state of one (region, cell), stored at
  // region * cells_per_region + cell. Every draw the platform makes comes from
  // a cell's substream, so sharded and serial runs consume identical
  // sequences. At cells_per_region == 1 there is one cell per region and its
  // streams and ids are the legacy per-region ones bit for bit; the
  // constructor is the one place that encoding is decided.
  struct Cell {
    Rng rng{0};  // Seeded by the constructor.
    trace::PodId pod_id_prefix = 0;  // Region and cell bits of every pod id.
    trace::PodId next_pod_seq = 0;
    uint64_t request_salt = 0;       // Mixed with the seq into each request id.
    uint64_t next_request_seq = 0;
    // A cold start raises load.active_* and pushes its ready key here, a
    // min-heap by (time, seq), under the seq it reserves when it starts. No
    // event lowers the counters: SettleLoad applies every key ordered before
    // the running event just before the load is read, so a read sees exactly
    // the cold starts an event at the ready key would have left in flight.
    // Settling changes how the load is stored, not its value, so const
    // readers settle too; hence mutable.
    mutable RegionLoadState load;
    mutable std::vector<ReadyKey> ready;
    std::array<ResourcePool, trace::kNumResourceConfigs> pools;
    int64_t visible_cold_starts = 0;
    int64_t cold_start_latency_sum_us = 0;
  };
  // The cell that holds `function`'s state when it runs in `region` (a routed
  // cold start runs outside the function's home region).
  Cell& CellFor(trace::RegionId region, trace::FunctionId function) {
    const uint32_t cell =
        options_.cells_per_region == 1 ? 0 : (*options_.function_cells)[function];
    return cells_[static_cast<size_t>(region) * options_.cells_per_region + cell];
  }
  // Sum of `value(cell)` over the region's cells.
  template <typename F>
  int64_t SumOverCells(trace::RegionId region, F value) const;
  // Lowers the cell's load counters by every ready key ordered before the
  // running event's (now, seq); between events, by every key at or before the
  // clock. Run before each read of the load.
  void SettleLoad(const Cell& cell) const;
  // CHECKs that the cell's in-flight counters equal its ready keys.
  static void CheckLoadConservation(const Cell& cell);
  // The pod's SoA hot entry (valid while the pod is alive in the slab).
  PodHot& hot(const Pod& pod) { return pod_hot_[pod.self.index]; }
  const PodHot& hot(const Pod& pod) const { return pod_hot_[pod.self.index]; }

  // Day-start body: pulls day `day`'s chunk from arrival_stream_ into chunk_,
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
  // per-pod scan touches only the PodHot array. A full pod whose earliest end
  // has passed has its ended requests retired (RetireEnded) before it is
  // considered.
  Pod* FindPodWithSlot(FunctionState& state, int concurrency, SimTime now);
  // Drops the pod's bound ends <= now and recomputes slots_used and next_end.
  void RetireEnded(Pod& pod, PodHot& h, SimTime now);
  Pod* StartColdStart(const workload::FunctionSpec& spec, trace::RegionId region,
                      bool prewarmed, SimDuration extra_sched_us);
  // Binds one request to a free slot of `pod` and does all of its work (see the
  // header comment); the pod must have a free slot at `arrival`.
  void AssignRequest(Pod* pod, const workload::FunctionSpec& spec, SimTime arrival);
  // Arms the pod's keep-alive at `expiry`, or re-keys its armed one there.
  void ArmKeepAlive(Pod* pod, SimTime expiry);
  void KillPod(Pod* pod, SimTime death_time);
  trace::ClusterId PickCluster(const workload::FunctionSpec& spec,
                               const FunctionState& state, trace::RegionId region);

  // --- The pending-event table. ---
  // Every pending queued event is an entry in events_, and its queue token is
  // the entry's packed handle. Every queued event fires: an event is never
  // cancelled, and one that must move (a keep-alive) is re-keyed in place
  // under a fresh seq. An entry is freed when it fires. A checkpoint saves the
  // table entry by entry and a restore re-queues each entry under its
  // original (time, seq) key. The table is always on, so checkpointed and
  // plain runs consume identical seqs.
  enum class EventKind : uint8_t {
    kInvoke,      // One arrival of `function`, deferred: a workflow child or
                  // an admission retry (`delay_exempt`).
    kKeepAlive,   // `pod`, idle since its last bound end, dies.
    kPrewarm,     // SpawnPrewarmedPod(function, region, keep_alive).
    kDayStart,    // OpenDayChunk(time / kDay).
    kPolicyTick,  // policy_->OnMinuteTick(time), then the next tick.
  };
  // The event's (time, seq) key lives in the queue alone: `entry` names it
  // (Simulator::RescheduleAt moves it, Simulator::QueuedKey reads it), and an
  // event runs at the clock it fires at.
  struct PendingEvent {
    EventKind kind = EventKind::kInvoke;
    bool delay_exempt = false;
    trace::RegionId region = 0;
    trace::FunctionId function = 0;
    sim::EventQueue::Entry entry = 0;
    SlabHandle pod;              // kKeepAlive.
    SimDuration keep_alive = 0;  // kPrewarm.
  };
  // Allocates an entry of `kind` and queues its token at (t, next seq),
  // consuming exactly one seq. The caller fills the payload in place (building
  // it in a temporary and copying it in measured ~10% slower on month_serial).
  std::pair<PendingEvent*, SlabHandle> ScheduleEvent(EventKind kind, SimTime t);
  // sim::EventTarget: resolves the entry `token` names (it is always live),
  // frees it, and runs its kind.
  void Fire(uint64_t token) override;

  const workload::Population& population_;
  std::vector<workload::RegionProfile> profiles_;
  workload::Calendar calendar_;
  sim::Simulator& sim_;
  trace::TraceSink& sink_;
  // sink_.reads_request_resources(), cached: when false, the per-request CPU and
  // memory draws are made and dropped (same RNG words, no exp or clamps).
  const bool draw_request_resources_;
  Options options_;
  PlatformPolicy* policy_;  // Not owned; may be null.

  std::vector<ColdStartModel> models_;                        // Per region.
  std::vector<Cell> cells_;  // Per (region, cell): the cell table (above).
  trace::PodId pod_seq_mask_ = kPodIdSeqMask;  // Per-cell pod sequence space.
  std::vector<FunctionState> states_;                         // Per function.
  std::unique_ptr<workload::ArrivalStream> arrival_stream_;   // Owned; pull-based.
  workload::ArrivalChunk chunk_;  // The one live day batch (capacity reused).
  ArrivalCursor arrival_cursor_;
  bool source_attached_ = false;
  Slab<Pod> pod_slab_;                                        // All alive pods.
  std::vector<PodHot> pod_hot_;  // SoA hot fields, indexed by slab slot.

  ResourceCostLedger cost_ledger_;        // Per region; order-invariant sums.
  Slab<PendingEvent> events_;             // The pending-event table (above).
};

}  // namespace coldstart::platform

#endif  // COLDSTART_PLATFORM_PLATFORM_H_
