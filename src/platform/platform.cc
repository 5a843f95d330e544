#include "platform/platform.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace coldstart::platform {

using trace::ColdStartRecord;
using trace::FunctionId;
using trace::PodId;
using trace::RegionId;
using workload::FunctionSpec;

namespace {

// Smallest b with (1 << b) >= n; 0 for n == 1.
uint32_t CeilLog2(uint32_t n) {
  uint32_t bits = 0;
  while ((uint32_t{1} << bits) < n) {
    ++bits;
  }
  return bits;
}

}  // namespace

Platform::Platform(const workload::Population& population,
                   const std::vector<workload::RegionProfile>& profiles,
                   const workload::Calendar& calendar, sim::Simulator& sim,
                   trace::TraceSink& sink, Options options, PlatformPolicy* policy)
    : population_(population),
      profiles_(profiles),
      calendar_(calendar),
      sim_(sim),
      sink_(sink),
      draw_request_resources_(sink.reads_request_resources()),
      options_(options),
      policy_(policy),
      arrival_cursor_(this) {
  COLDSTART_CHECK(!profiles_.empty());
  // One cell record per (region, cell), each with its own substream, pod-id
  // namespace and request-id namespace: a cell's draw sequence must not depend
  // on what other cells (or regions) do, or a sub-region sharded run could not
  // reproduce the serial run. The pod-id region field holds indices
  // 0 .. 2^(32-shift) - 1, so exactly 2^(32-shift) regions fit.
  COLDSTART_CHECK_LE(profiles_.size(),
                     static_cast<size_t>(1) << (32 - kPodIdRegionShift));
  const uint32_t cells = options_.cells_per_region;
  COLDSTART_CHECK_GE(cells, 1u);
  if (cells > 1) {
    COLDSTART_CHECK(options_.function_cells != nullptr);
    COLDSTART_CHECK_EQ(options_.function_cells->size(),
                       population_.functions.size());
  }
  // The cell index sits directly below the region bits of a pod id, above the
  // per-cell sequence number; at one cell it takes no bits.
  const uint32_t cell_bits = CeilLog2(cells);
  COLDSTART_CHECK_LT(cell_bits, static_cast<uint32_t>(kPodIdRegionShift));
  const uint32_t pod_seq_bits = static_cast<uint32_t>(kPodIdRegionShift) - cell_bits;
  pod_seq_mask_ = (trace::PodId{1} << pod_seq_bits) - 1;
  const uint64_t rng_base = MixHash(options.seed, HashString("platform"));
  models_.reserve(profiles_.size());
  cells_.reserve(profiles_.size() * cells);
  for (size_t r = 0; r < profiles_.size(); ++r) {
    const workload::RegionProfile& profile = profiles_[r];
    models_.emplace_back(profile, calendar_);
    for (uint32_t c = 0; c < cells; ++c) {
      // At one cell per region the RNG seed and the request salt are the legacy
      // per-region ones bit for bit; more cells fork both by cell index. A
      // golden digest pins each encoding.
      Cell& cell = cells_.emplace_back();
      uint64_t rng_seed = MixHash(rng_base, r);
      cell.request_salt = MixHash(0x9e3779b9, r);
      if (cells > 1) {
        rng_seed = MixHash(rng_seed, c);
        cell.request_salt = MixHash(cell.request_salt, c);
      }
      cell.rng = Rng(rng_seed);
      cell.pod_id_prefix = (static_cast<trace::PodId>(r) << kPodIdRegionShift) |
                           (static_cast<trace::PodId>(c) << pod_seq_bits);
      for (int k = 0; k < trace::kNumResourceConfigs; ++k) {
        const int base = profile.pool_base_size[static_cast<size_t>(k)];
        // Cells split the region's pool capacity without losing a unit to
        // rounding: cell c of C gets base*(c+1)/C - base*c/C (the whole base at
        // C == 1). Refill splits as an exact double division (x / 1.0 == x).
        const int target = base * static_cast<int>(c + 1) / static_cast<int>(cells) -
                           base * static_cast<int>(c) / static_cast<int>(cells);
        cell.pools[static_cast<size_t>(k)] =
            ResourcePool(target, profile.pool_refill_per_min / cells);
      }
    }
  }
  cost_ledger_ = ResourceCostLedger(profiles_.size());
  states_.resize(population_.functions.size());
  for (const auto& f : population_.functions) {
    // A pod's bound ends live inline in Pod::ends.
    COLDSTART_CHECK_GE(f.pod_concurrency, 1);
    COLDSTART_CHECK_LE(f.pod_concurrency, kMaxPodConcurrency);
    states_[f.id].log_exec_median_us = std::log(f.exec_median_us);
  }

  // Function-level table (one row per function, like the paper's third stream).
  // A resuming platform skips the emission: the restored sink already holds it.
  if (!options_.resuming) {
    for (const auto& f : population_.functions) {
      trace::FunctionRecord rec;
      rec.function_id = f.id;
      rec.user_id = f.user;
      rec.region = f.region;
      rec.runtime = f.runtime;
      rec.primary_trigger = f.primary_trigger;
      rec.trigger_mask = f.trigger_mask;
      rec.config = f.config;
      sink_.OnFunction(rec);
    }
  }

  sim_.AttachTarget(this);
  if (policy_ != nullptr) {
    policy_->OnAttach(*this);
    // The minute tick is a pending-event entry: it consumes one seq here and
    // one per reschedule after the tick body runs. On resume the restored
    // table holds the pending tick instead.
    if (!options_.resuming && calendar_.horizon() > 0) {
      ScheduleEvent(EventKind::kPolicyTick, 0);
    }
  }
}

Platform::~Platform() {
  if (source_attached_) {
    sim_.AttachSource(nullptr);
  }
  sim_.AttachTarget(nullptr);
}

void Platform::ArrivalCursor::Open(size_t count, uint64_t seq_base) {
  // Day batches never overlap: every arrival of the previous day is strictly
  // earlier than the next day's day-start event.
  COLDSTART_CHECK_EQ(next_, limit_);
  next_ = 0;
  limit_ = count;
  seq_base_ = seq_base;
}

bool Platform::ArrivalCursor::Head(SimTime* time, uint64_t* seq) {
  if (next_ == limit_) {
    return false;
  }
  *time = platform_->chunk_.events[next_].time;
  *seq = seq_base_ + next_;
  return true;
}

void Platform::ArrivalCursor::RunHead() {
  const workload::ArrivalEvent* events = platform_->chunk_.events.data();
  const workload::ArrivalEvent& arrival = events[next_];
  // The stream contract requires sorted arrivals (the queue would re-order
  // queued events; the cursor replays them as-is). Fail loudly rather than
  // silently rewinding the clock.
  COLDSTART_CHECK_GE(arrival.time, last_time_);
  last_time_ = arrival.time;
  // Batched drain: dispatch the whole same-timestamp run in one call. The day
  // chunk's seq range is contiguous and reserved at the day start, so every
  // queued event at this timestamp has a seq strictly below the run's first
  // arrival (it already fired) or strictly above its last (it fires after) —
  // no queued event can interleave, and nothing the run itself schedules lands
  // at the same instant (all platform delays are > 0). See docs/determinism.md.
  const size_t begin = next_;
  size_t end = begin + 1;
  while (end < limit_ && events[end].time == arrival.time) {
    ++end;
  }
  next_ = end;
  platform_->HandleArrivalRun(events + begin, end - begin);
  // The simulator counted this RunHead as one event; account for the rest of
  // the run so events_processed matches the per-event path.
  platform_->sim_.AddProcessedEvents(end - begin - 1);
}

void Platform::OpenDayChunk(int64_t day) {
  if (arrival_stream_ == nullptr || !arrival_stream_->NextChunk(&chunk_)) {
    chunk_.events.clear();
    return;  // Exhausted stream: the remaining day starts are no-ops.
  }
  // Contract checks are O(1) per day: chunks arrive in day order and their
  // (sorted) events lie inside the day window — a violation would corrupt the
  // (time, seq) total order, so fail loudly here rather than deep in the run.
  COLDSTART_CHECK_EQ(chunk_.day, day);
  if (chunk_.events.empty()) {
    return;
  }
  COLDSTART_CHECK_GE(chunk_.events.front().time, day * kDay);
  COLDSTART_CHECK_LT(chunk_.events.back().time,
                     std::min<SimTime>((day + 1) * kDay, calendar_.horizon()));
  arrival_cursor_.Open(chunk_.events.size(),
                       sim_.ReserveSeqRange(chunk_.events.size()));
}

void Platform::AttachArrivalStream(std::unique_ptr<workload::ArrivalStream> stream) {
  // Arrivals flow through the attached cursor one day-batch at a time: each
  // day-start event pulls its day's chunk and reserves the batch's contiguous
  // seq range (the same sequence numbers per-arrival events would have
  // consumed), so a year of arrivals costs one live chunk plus one day-start
  // entry per day instead of one queued event per arrival. Scheduling every
  // day start up front (at attach time) keeps their seq numbers below every
  // run-time event's, exactly like the eagerly scheduled batches they replace
  // — see docs/determinism.md.
  COLDSTART_CHECK(arrival_stream_ == nullptr && !source_attached_);
  arrival_stream_ = std::move(stream);
  if (arrival_stream_ == nullptr) {
    return;
  }
  const SimTime horizon = calendar_.horizon();
  for (int64_t day = 0; day * kDay < horizon; ++day) {
    // Wake exactly at the day boundary (covers the t=0 first arrival: day_start
    // is never negative). Anchoring the batch's seq reservation at day start —
    // rather than at "first arrival - 1", which depends on which regions the
    // stream contains — keeps the (time, seq) interleaving of arrivals and
    // handler-scheduled events identical between the serial run and per-region
    // shards.
    ScheduleEvent(EventKind::kDayStart, day * kDay);
  }
  if (horizon > 0) {
    sim_.AttachSource(&arrival_cursor_);
    source_attached_ = true;
  }
}

const workload::FunctionSpec& Platform::spec(FunctionId function) const {
  return population_.functions.at(function);
}

ResourcePool& Platform::pool(RegionId region, trace::ResourceConfig config) {
  COLDSTART_CHECK_EQ(options_.cells_per_region, 1u);
  return cells_.at(region).pools.at(static_cast<size_t>(config));
}

bool Platform::HasAvailablePod(FunctionId function) const {
  const int concurrency = population_.functions.at(function).pod_concurrency;
  const SimTime now = sim_.now();
  for (const Pod* pod : states_[function].pods) {
    const PodHot& h = hot(*pod);
    if (h.slots_used < concurrency || h.next_end <= now) {
      return true;
    }
  }
  return false;
}

int Platform::alive_pod_count(FunctionId function) const {
  return static_cast<int>(states_.at(function).pods.size());
}

template <typename F>
int64_t Platform::SumOverCells(RegionId region, F value) const {
  COLDSTART_CHECK_LT(region, profiles_.size());
  const uint32_t n = options_.cells_per_region;
  int64_t total = 0;
  for (size_t i = static_cast<size_t>(region) * n; i < (region + size_t{1}) * n; ++i) {
    total += value(cells_[i]);
  }
  return total;
}

int64_t Platform::cold_starts(RegionId region) const {
  return SumOverCells(region, [](const Cell& c) { return c.visible_cold_starts; });
}

int64_t Platform::total_cold_starts() const {
  int64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.visible_cold_starts;
  }
  return total;
}

int64_t Platform::cold_start_latency_sum_us(RegionId region) const {
  return SumOverCells(region, [](const Cell& c) { return c.cold_start_latency_sum_us; });
}

int64_t Platform::scratch_allocations(RegionId region) const {
  return SumOverCells(region, [](const Cell& c) {
    int64_t total = 0;
    for (const ResourcePool& pool : c.pools) {
      total += pool.scratch_count();
    }
    return total;
  });
}

int64_t Platform::prewarm_spawns(RegionId region) const {
  return SumOverCells(region, [](const Cell& c) { return c.load.prewarm_spawns; });
}

int64_t Platform::delayed_allocations(RegionId region) const {
  return SumOverCells(region, [](const Cell& c) { return c.load.delayed_allocations; });
}

int64_t Platform::active_cold_starts(RegionId region) const {
  return SumOverCells(region, [this](const Cell& c) {
    SettleLoad(c);
    return c.load.active_cold_starts;
  });
}

void Platform::SettleLoad(const Cell& cell) const {
  // A key (t, s) would have fired by now iff it orders before the running
  // event's (now, current_seq); between events current_seq is kNoEvent, so
  // every key at the clock has.
  const SimTime now = sim_.now();
  const uint64_t seq = sim_.current_seq();
  std::vector<ReadyKey>& ready = cell.ready;
  while (!ready.empty() && (ready.front().time < now ||
                            (ready.front().time == now && ready.front().seq < seq))) {
    std::pop_heap(ready.begin(), ready.end(), ReadyLater);
    RegionLoadState& l = cell.load;
    --l.active_cold_starts;
    --l.active_code_deploys;
    if (ready.back().has_deps) {
      --l.active_dep_deploys;
    }
    ready.pop_back();
  }
}

void Platform::CheckLoadConservation(const Cell& cell) {
  const int64_t in_flight = static_cast<int64_t>(cell.ready.size());
  const int64_t with_deps = std::count_if(cell.ready.begin(), cell.ready.end(),
                                          [](const ReadyKey& k) { return k.has_deps; });
  COLDSTART_CHECK_EQ(cell.load.active_cold_starts, in_flight);
  COLDSTART_CHECK_EQ(cell.load.active_code_deploys, in_flight);
  COLDSTART_CHECK_EQ(cell.load.active_dep_deploys, with_deps);
}

uint64_t Platform::pods_created() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.next_pod_seq;
  }
  return total;
}

void Platform::RetireEnded(Pod& pod, PodHot& h, SimTime now) {
  int kept = 0;
  SimTime next_end = kNoBoundEnd;
  for (int i = 0; i < h.slots_used; ++i) {
    const SimTime end = pod.ends[static_cast<size_t>(i)];
    if (end > now) {
      pod.ends[static_cast<size_t>(kept++)] = end;
      next_end = std::min(next_end, end);
    }
  }
  h.slots_used = kept;
  h.next_end = next_end;
}

Pod* Platform::FindPodWithSlot(FunctionState& state, int concurrency, SimTime now) {
  // The scan touches only the SoA hot entries: `concurrency` is hoisted by the
  // caller, so no per-pod spec lookup, and the cold Pod fields stay untouched
  // unless a full pod has an ended request to retire.
  Pod* best_warm = nullptr;
  Pod* best_warming = nullptr;
  SimTime best_warm_lru = 0;
  SimTime best_warming_ready = 0;
  for (Pod* pod : state.pods) {
    PodHot& h = hot(*pod);
    if (h.slots_used >= concurrency) {
      if (h.next_end > now) {
        continue;  // Every slot is held past now.
      }
      RetireEnded(*pod, h, now);
    }
    if (h.ready_time <= now) {
      // Prefer the warm pod that has been idle longest (LRU keeps the fleet compact).
      if (best_warm == nullptr || h.last_busy_end < best_warm_lru) {
        best_warm = pod;
        best_warm_lru = h.last_busy_end;
      }
    } else if (best_warming == nullptr || h.ready_time < best_warming_ready) {
      best_warming = pod;
      best_warming_ready = h.ready_time;
    }
  }
  return best_warm != nullptr ? best_warm : best_warming;
}

trace::ClusterId Platform::PickCluster(const FunctionSpec& spec,
                                       const FunctionState& state, RegionId region) {
  if (spec.single_cluster) {
    return spec.home_cluster;
  }
  // Hash-affinity with power-of-two spillover: compare the home cluster against one
  // random alternative and place the pod where this function has fewer pods (§2.1's
  // "balance traffic between clusters, starting pods in a new cluster").
  const trace::ClusterId alt = static_cast<trace::ClusterId>(
      (spec.home_cluster + 1 +
       CellFor(region, spec.id).rng.NextBounded(trace::kClustersPerRegion - 1)) %
      trace::kClustersPerRegion);
  int home_count = 0;
  int alt_count = 0;
  for (const Pod* pod : state.pods) {
    if (pod->region != region) {
      continue;
    }
    if (pod->cluster == spec.home_cluster) {
      ++home_count;
    } else if (pod->cluster == alt) {
      ++alt_count;
    }
  }
  return home_count <= alt_count ? spec.home_cluster : alt;
}

Pod* Platform::StartColdStart(const FunctionSpec& spec, RegionId region, bool prewarmed,
                              SimDuration extra_sched_us) {
  const SimTime now = sim_.now();
  FunctionState& state = states_[spec.id];
  Cell& cell = CellFor(region, spec.id);
  RegionLoadState& load = cell.load;
  SettleLoad(cell);
  load.ObserveColdStart(now);  // The event contributes to its own congestion window.
  ColdStartComponents comp = models_[region].Compute(
      spec, cell.pools[static_cast<size_t>(spec.config)], load, now, cell.rng);
  comp.scheduling += extra_sched_us;
  if (comp.from_scratch) {
    cost_ledger_.AddScratchCreation(region);
  }

  auto [pod, handle] = pod_slab_.Allocate();
  if (pod_hot_.size() < pod_slab_.capacity()) {
    pod_hot_.resize(pod_slab_.capacity());
  }
  pod->self = handle;
  // Strict: the last (region, cell, seq) combination would collide with
  // kInvalidPod.
  COLDSTART_CHECK_LT(cell.next_pod_seq, pod_seq_mask_);
  pod->id = cell.pod_id_prefix | cell.next_pod_seq++;
  pod->function = spec.id;
  pod->region = region;
  pod->cluster = PickCluster(spec, state, region);
  pod->config = spec.config;
  pod->cold_start_begin = now;
  pod->cold_start_us = static_cast<uint32_t>(std::min<SimDuration>(comp.total(), UINT32_MAX));
  pod->prewarmed = prewarmed;
  // Reset the slot's hot entry (it may carry a freed predecessor's values).
  PodHot& h = pod_hot_[handle.index];
  h.ready_time = now + comp.total();
  h.last_busy_end = h.ready_time;
  h.next_end = kNoBoundEnd;
  h.slots_used = 0;

  // Load counters stay elevated for the duration of the pipeline; the decrements are
  // what make congestion oscillate with the cold-start rate. The ready key takes
  // the seq a decrement event scheduled here would have taken.
  const bool has_deps = spec.dep_size_kb > 0;
  ++load.active_cold_starts;
  ++load.active_code_deploys;
  if (has_deps) {
    ++load.active_dep_deploys;
  }
  cell.ready.push_back({h.ready_time, sim_.ReserveSeqRange(1), has_deps});
  std::push_heap(cell.ready.begin(), cell.ready.end(), ReadyLater);

  if (prewarmed) {
    ++load.prewarm_spawns;
  } else {
    // The sum adds the recorded (32-bit) latency, so it equals the sinks' sum
    // of the records by construction.
    ++cell.visible_cold_starts;
    cell.cold_start_latency_sum_us += pod->cold_start_us;
    ColdStartRecord rec;
    rec.timestamp = now;
    rec.pod_id = pod->id;
    rec.function_id = spec.id;
    rec.user_id = spec.user;
    rec.region = region;
    rec.cluster = pod->cluster;
    rec.cold_start_us = pod->cold_start_us;
    rec.pod_alloc_us = static_cast<uint32_t>(comp.pod_alloc);
    rec.deploy_code_us = static_cast<uint32_t>(comp.deploy_code);
    rec.deploy_dep_us = static_cast<uint32_t>(comp.deploy_dep);
    rec.scheduling_us = static_cast<uint32_t>(comp.scheduling);
    sink_.OnColdStart(rec);
    if (policy_ != nullptr) {
      policy_->OnColdStart(spec, now, comp.total());
    }
  }

  state.pods.push_back(pod);
  return pod;
}

void Platform::AssignRequest(Pod* pod, const FunctionSpec& spec, SimTime arrival) {
  PodHot& h = hot(*pod);
  const SimTime exec_start = std::max(arrival, h.ready_time);
  if (exec_start > h.last_busy_end) {
    // Every bound request ended by last_busy_end, so the pod sat warm and
    // empty from then until this request; the interval is warm-idle capacity
    // the cost ledger charges at death.
    pod->idle_us += exec_start - h.last_busy_end;
  }
  // The pod's function equals spec.id here, so one cell lookup covers the
  // execution draw, the id mint and the resource draws.
  Cell& cell = CellFor(pod->region, spec.id);
  double exec_us = std::exp(states_[spec.id].log_exec_median_us +
                            spec.exec_sigma * cell.rng.NextGaussian());
  exec_us = std::clamp(exec_us, 100.0, 600e6);
  const uint32_t exec = static_cast<uint32_t>(exec_us);
  const SimTime exec_end = exec_start + exec;

  // The request holds its slot until exec_end; no event marks the end.
  pod->ends[static_cast<size_t>(h.slots_used++)] = exec_end;
  h.next_end = std::min(h.next_end, exec_end);
  ++pod->served;
  const bool ends_last = exec_end >= h.last_busy_end;
  h.last_busy_end = std::max(h.last_busy_end, exec_end);

  if (options_.record_requests) {
    trace::RequestRecord rec;
    rec.timestamp = exec_start;
    // Request ids mix the cell's counter under the cell's salt, so the id
    // stream is identical whether the cell ran alone (sharded) or alongside
    // the others.
    rec.request_id = MixHash(cell.request_salt, cell.next_request_seq++);
    rec.pod_id = pod->id;
    rec.function_id = spec.id;
    rec.user_id = spec.user;
    rec.region = pod->region;
    rec.cluster = pod->cluster;
    rec.execution_time_us = exec;
    // Both draws run even when the sink never reads these fields: a Gaussian
    // draw takes a variable number of words, so only making it keeps the
    // stream aligned with a full-record run. Only the exp and clamps are
    // skipped.
    const double cpu_z = cell.rng.NextGaussian();
    const double mem_z = cell.rng.NextGaussian();
    if (draw_request_resources_) {
      double cpu = spec.cpu_mean_cores * std::exp(0.3 * cpu_z);
      cpu = std::clamp(cpu, 0.005,
                       static_cast<double>(CpuMillicoresOf(spec.config)) / 1000.0);
      rec.cpu_millicores = static_cast<uint16_t>(cpu * 1000.0);
      double mem_kb = spec.mem_mean_kb * std::exp(0.25 * mem_z);
      mem_kb = std::clamp(mem_kb, 1024.0,
                          1024.0 * static_cast<double>(MemoryMbOf(spec.config)));
      rec.memory_kb = static_cast<uint32_t>(mem_kb);
    }
    sink_.OnRequest(rec);
  }

  // Workflow fan-out: downstream functions are invoked after the parent ends;
  // the draws and the children's invokes are made now, at bind time.
  // Draws come from the parent's home-(region, cell) stream (children are wired
  // within the region and share the parent's cell by construction —
  // workload/function_cells.h — so sharded runs replay exactly this sequence).
  for (const auto& edge : spec.children) {
    Rng& fanout_rng = CellFor(spec.region, spec.id).rng;
    if (fanout_rng.NextBool(edge.probability)) {
      const SimDuration delay = FromSeconds(fanout_rng.Uniform(0.005, 0.05));
      ScheduleEvent(EventKind::kInvoke, exec_end + delay).first->function = edge.child;
    }
  }

  if (ends_last) {
    // The pod goes idle at exec_end unless a later request binds first: its
    // one keep-alive moves there, granted as of the idle start.
    const SimDuration asked = policy_ != nullptr ? policy_->KeepAliveFor(spec, exec_end)
                                                 : PlatformPolicy::kDefaultKeepAlive;
    ArmKeepAlive(pod, exec_end + (asked == PlatformPolicy::kDefaultKeepAlive
                                      ? options_.default_keep_alive
                                      : asked));
  }
}

std::pair<Platform::PendingEvent*, SlabHandle> Platform::ScheduleEvent(EventKind kind,
                                                                      SimTime t) {
  auto [event, h] = events_.Allocate();
  event->kind = kind;
  sim_.ScheduleAt(t, h.Pack(), &event->entry);
  return {event, h};
}

void Platform::Fire(uint64_t token) {
  const SlabHandle h = SlabHandle::Unpack(token);
  const PendingEvent* live = events_.Resolve(h);
  COLDSTART_CHECK(live != nullptr);
  const PendingEvent e = *live;
  events_.Free(h);
  const SimTime now = sim_.now();
  switch (e.kind) {
    case EventKind::kInvoke:
      HandleArrivalBatch(e.function, 1, e.delay_exempt);
      return;
    case EventKind::kKeepAlive: {
      // Only its keep-alive kills a pod mid-run; it is due at or after the
      // pod's last bound end, so no request is left on the pod.
      Pod* pod = pod_slab_.Resolve(e.pod);
      COLDSTART_CHECK(pod != nullptr && hot(*pod).last_busy_end <= now);
      KillPod(pod, now);
      return;
    }
    case EventKind::kPrewarm:
      if (!HasAvailablePod(e.function)) {
        SpawnPrewarmedPod(e.function, e.region, e.keep_alive);
      }
      return;
    case EventKind::kDayStart:
      OpenDayChunk(now / kDay);
      return;
    case EventKind::kPolicyTick:
      // The body runs first, then the next tick takes its seq.
      policy_->OnMinuteTick(now);
      if (now + kMinute < calendar_.horizon()) {
        ScheduleEvent(EventKind::kPolicyTick, now + kMinute);
      }
      return;
  }
}

void Platform::ArmKeepAlive(Pod* pod, SimTime expiry) {
  // Only a pod's first keep-alive is scheduled; every later one moves it.
  if (const PendingEvent* armed = events_.Resolve(pod->keep_alive)) {
    sim_.RescheduleAt(armed->entry, expiry);
    return;
  }
  auto [event, h] = ScheduleEvent(EventKind::kKeepAlive, expiry);
  event->pod = pod->self;
  pod->keep_alive = h;
}

void Platform::KillPod(Pod* pod, SimTime death_time) {
  const FunctionSpec& spec = population_.functions[pod->function];
  const PodHot& h = hot(*pod);
  if (workload::TraitsOf(spec.runtime).pool_backed) {
    CellFor(pod->region, pod->function).pools[static_cast<size_t>(pod->config)].Release(
        death_time);
  }

  trace::PodLifetimeRecord rec;
  rec.pod_id = pod->id;
  rec.function_id = pod->function;
  rec.region = pod->region;
  rec.cluster = pod->cluster;
  rec.config = pod->config;
  rec.cold_start_begin = pod->cold_start_begin;
  rec.ready_time = h.ready_time;
  rec.last_busy_end = h.last_busy_end;
  rec.death_time = death_time;
  rec.cold_start_us = pod->cold_start_us;
  rec.requests_served = pod->served;
  sink_.OnPodLifetime(rec);

  // Resource accounting: lifetime, warm-idle total (completed intervals plus the
  // final idle tail), and the model's snapshot surcharge over the lifetime. All
  // integer µs, so the ledger's sums are order-invariant across geometries.
  const int64_t lifetime_us = death_time - pod->cold_start_begin;
  int64_t warm_idle_us = pod->idle_us;
  if (death_time > h.last_busy_end) {
    warm_idle_us += death_time - h.last_busy_end;
  }
  cost_ledger_.AddPodDeath(pod->region, lifetime_us, warm_idle_us,
                           models_[pod->region].snapshot_memory_mb());

  auto& pods = states_[pod->function].pods;
  const auto it = std::find(pods.begin(), pods.end(), pod);
  COLDSTART_CHECK(it != pods.end());
  *it = pods.back();
  pods.pop_back();
  pod_slab_.Free(pod->self);
}

void Platform::HandleArrivalRun(const workload::ArrivalEvent* events, size_t count) {
  // The chunk is (time, function)-sorted, so a same-timestamp run visits each
  // function's arrivals as one contiguous group — batching is free.
  size_t i = 0;
  while (i < count) {
    size_t j = i + 1;
    while (j < count && events[j].function == events[i].function) {
      ++j;
    }
    HandleArrivalBatch(events[i].function, j - i, /*delay_exempt=*/false);
    i = j;
  }
}

void Platform::HandleArrivalBatch(FunctionId fid, size_t count, bool delay_exempt) {
  // The spec/state/cell lookups are hoisted across the batch; everything else
  // runs per arrival, in order, exactly as `count` batches of 1 would —
  // each iteration must observe the slot/load mutations of the previous one.
  const FunctionSpec& fspec = population_.functions.at(fid);
  const SimTime now = sim_.now();
  Cell& cell = CellFor(fspec.region, fid);
  RegionLoadState& load = cell.load;
  FunctionState& state = states_[fid];
  const int concurrency = fspec.pod_concurrency;

  for (size_t k = 0; k < count; ++k) {
    if (policy_ != nullptr) {
      policy_->OnArrival(fspec, now);
      if (!fspec.children.empty()) {
        policy_->OnParentRequestStart(fspec, now);
      }
      if (!delay_exempt && !trace::IsSynchronous(fspec.primary_trigger)) {
        SettleLoad(cell);
        const SimDuration delay = policy_->AdmissionDelay(fspec, now, load);
        if (delay > 0) {
          ++load.delayed_allocations;
          PendingEvent* retry = ScheduleEvent(EventKind::kInvoke, now + delay).first;
          retry->delay_exempt = true;
          retry->function = fid;
          continue;
        }
      }
    }

    Pod* pod = FindPodWithSlot(state, concurrency, now);
    if (pod == nullptr) {
      RegionId region = fspec.region;
      SimDuration extra_sched = 0;
      if (policy_ != nullptr) {
        const RegionId routed = policy_->RouteColdStart(fspec, now);
        if (routed != fspec.region && routed < profiles_.size()) {
          region = routed;
          extra_sched = FromSeconds(profiles_[fspec.region].inter_region_rtt_ms / 1000.0);
        }
      }
      pod = StartColdStart(fspec, region, /*prewarmed=*/false, extra_sched);
    }
    AssignRequest(pod, fspec, now);
  }
}

void Platform::SpawnPrewarmedPod(FunctionId function, RegionId region,
                                 SimDuration initial_keep_alive) {
  const FunctionSpec& fspec = population_.functions.at(function);
  Pod* pod = StartColdStart(fspec, region, /*prewarmed=*/true, 0);
  // The prewarmed pod idles from readiness; give it the requested survival window.
  ArmKeepAlive(pod, hot(*pod).ready_time + initial_keep_alive);
}

void Platform::SpawnPrewarmedPodAt(SimTime at, FunctionId function, RegionId region,
                                   SimDuration initial_keep_alive) {
  PendingEvent* spawn = ScheduleEvent(EventKind::kPrewarm, at).first;
  spawn->region = region;
  spawn->function = function;
  spawn->keep_alive = initial_keep_alive;
}

namespace {

// Slab structure serialization: capacity, the LIFO freelist, and each slot's
// (generation, alive) pair. Payloads are written by the caller, field by field,
// over the alive slots in index order.
template <typename T>
void SaveSlabStructure(const Slab<T>& slab, ByteWriter& w) {
  const uint32_t cap = static_cast<uint32_t>(slab.capacity());
  w.U32(cap);
  const std::vector<uint32_t>& free_list = slab.free_list();
  w.U64(free_list.size());
  for (const uint32_t i : free_list) {
    w.U32(i);
  }
  for (uint32_t i = 0; i < cap; ++i) {
    w.U32(slab.slot_generation(i));
  }
  for (uint32_t i = 0; i < cap; ++i) {
    w.U8(slab.slot_alive(i) ? 1 : 0);
  }
}

// Mirror of SaveSlabStructure on an empty slab; returns the alive slot indices
// (in index order) so the caller can fill the payloads.
template <typename T>
std::vector<uint32_t> RestoreSlabStructure(Slab<T>& slab, ByteReader& r) {
  const uint32_t cap = r.U32();
  // Every slot costs at least five bytes below, so a larger count is damage,
  // not a reason to allocate.
  COLDSTART_CHECK_LE(cap, r.Remaining());
  const uint64_t num_free = r.U64();
  COLDSTART_CHECK_LE(num_free, cap);
  std::vector<uint32_t> free_list(num_free);
  for (uint32_t& i : free_list) {
    i = r.U32();
  }
  std::vector<uint32_t> generations(cap);
  for (uint32_t& g : generations) {
    g = r.U32();
  }
  std::vector<uint8_t> alive(cap);
  for (uint8_t& a : alive) {
    a = r.U8();
  }
  std::vector<uint32_t> alive_indices;
  for (uint32_t i = 0; i < cap; ++i) {
    if (alive[i] != 0) {
      alive_indices.push_back(i);
    }
  }
  slab.RestoreStructure(cap, std::move(free_list), generations, alive);
  return alive_indices;
}

}  // namespace

void Platform::SaveCheckpointState(ByteWriter& w) const {
  const SimTime now = sim_.now();
  // Quiescent day boundary: every event < the boundary fired, the live chunk is
  // drained, and every pending event is an entry of the table.
  COLDSTART_CHECK_EQ((now + 1) % kDay, 0);
  COLDSTART_CHECK(arrival_cursor_.drained());

  // The cell table, cell by cell (doubles travel as bit patterns). The pools'
  // construction parameters are re-derived from the profiles on restore. Each
  // cell is settled to the clock first, so its ready keys all lie after it.
  w.U64(cells_.size());
  for (const Cell& cell : cells_) {
    SettleLoad(cell);
    CheckLoadConservation(cell);
    uint64_t words[4];
    cell.rng.SaveState(words);
    w.Raw(words, sizeof(words));
    w.U64(cell.next_pod_seq);
    w.U64(cell.next_request_seq);
    const RegionLoadState& l = cell.load;
    w.I64(l.active_cold_starts);
    w.I64(l.active_code_deploys);
    w.I64(l.active_dep_deploys);
    w.I64(l.prewarm_spawns);
    w.I64(l.delayed_allocations);
    w.F64(l.cold_start_window);
    w.I64(l.window_updated);
    for (const ResourcePool& pool : cell.pools) {
      const ResourcePool::CheckpointState cs = pool.checkpoint_state();
      w.I64(cs.free);
      w.I64(cs.target);
      w.F64(cs.refill_credit);
      w.I64(cs.last_refill);
      w.I64(cs.scratch_count);
    }
    w.I64(cell.visible_cold_starts);
    w.I64(cell.cold_start_latency_sum_us);
    // The in-flight ready keys in (time, seq) order, which is also a valid
    // heap order: the bytes do not depend on the heap's history.
    std::vector<ReadyKey> ready = cell.ready;
    std::sort(ready.begin(), ready.end(),
              [](const ReadyKey& a, const ReadyKey& b) { return ReadyLater(b, a); });
    w.U64(ready.size());
    for (const ReadyKey& k : ready) {
      w.I64(k.time);
      w.U64(k.seq);
      w.U8(k.has_deps ? 1 : 0);
    }
  }

  // Resource-cost ledger (order-invariant 128-bit sums, two words each).
  cost_ledger_.SaveState(w);

  // Pod slab: structure, then the alive pods field by field (slot index order).
  // `self` is not written — it is re-derived from (index, generation) on restore.
  SaveSlabStructure(pod_slab_, w);
  for (uint32_t i = 0; i < pod_slab_.capacity(); ++i) {
    if (!pod_slab_.slot_alive(i)) {
      continue;
    }
    const Pod& p = pod_slab_.slot_value(i);
    const PodHot& h = pod_hot_[i];
    w.U64(p.id);
    w.U64(p.function);
    w.U32(p.region);
    w.U32(p.cluster);
    w.U8(static_cast<uint8_t>(p.config));
    w.I64(p.cold_start_begin);
    w.I64(h.ready_time);
    w.U32(p.cold_start_us);
    w.I64(h.last_busy_end);
    w.U32(p.served);
    w.U8(p.prewarmed ? 1 : 0);
    w.I64(p.idle_us);
    // The bound ends still running, in array order. Ended ones are free slots
    // a plain run has not retired yet; they change no decision, so they are
    // retired here (the running count alone decides whether the pod has a slot).
    const auto bound_end = p.ends.begin() + h.slots_used;
    w.U64(static_cast<uint64_t>(std::count_if(
        p.ends.begin(), bound_end, [now](SimTime end) { return end > now; })));
    for (auto end = p.ends.begin(); end != bound_end; ++end) {
      if (*end > now) {
        w.I64(*end);
      }
    }
    // Every alive pod holds exactly one live keep-alive, the event that will
    // kill it. Restore re-links it from the event table.
    COLDSTART_CHECK(events_.Resolve(p.keep_alive) != nullptr);
  }

  // Per-function pod lists, as slot indices in list order (order matters:
  // FindPodWithSlot and PickCluster iterate these).
  w.U64(states_.size());
  for (const FunctionState& state : states_) {
    w.U64(state.pods.size());
    for (const Pod* pod : state.pods) {
      w.U32(pod->self.index);
    }
  }

  // The arrival cursor's sorted-contract guard.
  w.I64(arrival_cursor_.last_time());

  // The pending-event table: every entry writes every field, under its
  // original (time, seq) key; each kind reads only its own payload.
  SaveSlabStructure(events_, w);
  for (uint32_t i = 0; i < events_.capacity(); ++i) {
    if (!events_.slot_alive(i)) {
      continue;
    }
    const PendingEvent& e = events_.slot_value(i);
    w.U8(static_cast<uint8_t>(e.kind));
    w.U8(e.delay_exempt ? 1 : 0);
    w.U32(e.region);
    w.U64(e.function);
    SimTime time = 0;
    uint64_t seq = 0;
    sim_.QueuedKey(e.entry, &time, &seq);
    w.I64(time);
    w.U64(seq);
    w.U32(e.pod.index);
    w.U32(e.pod.gen);
    w.I64(e.keep_alive);
  }

  // Arrival stream: whether one is attached, then its (possibly empty) state
  // blob, written unconditionally so the write/read op sequences stay
  // symmetric either way (lint:serde-pair).
  ByteWriter sw;
  if (arrival_stream_ != nullptr) {
    COLDSTART_CHECK(arrival_stream_->SaveState(sw));
  }
  w.U8(arrival_stream_ != nullptr ? 1 : 0);
  w.Str(sw.data());
}

void Platform::RestoreCheckpointState(
    ByteReader& r, std::unique_ptr<workload::ArrivalStream> stream) {
  const SimTime now = sim_.now();
  COLDSTART_CHECK(options_.resuming);
  COLDSTART_CHECK_EQ((now + 1) % kDay, 0);
  COLDSTART_CHECK(arrival_stream_ == nullptr && !source_attached_);
  COLDSTART_CHECK_EQ(pod_slab_.capacity(), 0u);

  COLDSTART_CHECK_EQ(r.U64(), cells_.size());
  for (Cell& cell : cells_) {
    uint64_t words[4];
    r.Raw(words, sizeof(words));
    cell.rng.RestoreState(words);
    cell.next_pod_seq = static_cast<trace::PodId>(r.U64());
    cell.next_request_seq = r.U64();
    RegionLoadState& l = cell.load;
    l.active_cold_starts = static_cast<int>(r.I64());
    l.active_code_deploys = static_cast<int>(r.I64());
    l.active_dep_deploys = static_cast<int>(r.I64());
    l.prewarm_spawns = r.I64();
    l.delayed_allocations = r.I64();
    l.cold_start_window = r.F64();
    l.window_updated = r.I64();
    for (ResourcePool& pool : cell.pools) {
      ResourcePool::CheckpointState cs;
      cs.free = static_cast<int>(r.I64());
      cs.target = static_cast<int>(r.I64());
      cs.refill_credit = r.F64();
      cs.last_refill = r.I64();
      cs.scratch_count = r.I64();
      pool.restore_checkpoint_state(cs);
    }
    cell.visible_cold_starts = r.I64();
    cell.cold_start_latency_sum_us = r.I64();
    // Each key is still in flight (after the clock), was reserved before the
    // save (below next_seq) and follows its predecessor, so the sorted
    // vector is the heap as is.
    const uint64_t num_ready = r.U64();
    constexpr size_t kReadyKeyBytes = 8 + 8 + 1;
    COLDSTART_CHECK_LE(num_ready, r.Remaining() / kReadyKeyBytes);
    cell.ready.resize(num_ready);
    for (size_t k = 0; k < num_ready; ++k) {
      ReadyKey& key = cell.ready[k];
      key.time = r.I64();
      key.seq = r.U64();
      const uint8_t has_deps = r.U8();
      COLDSTART_CHECK_LE(has_deps, 1);
      key.has_deps = has_deps == 1;
      COLDSTART_CHECK_GT(key.time, now);
      COLDSTART_CHECK_LT(key.seq, sim_.next_seq());
      COLDSTART_CHECK(k == 0 || ReadyLater(key, cell.ready[k - 1]));
    }
    CheckLoadConservation(cell);
  }

  cost_ledger_.RestoreState(r);
  COLDSTART_CHECK_EQ(cost_ledger_.num_regions(), profiles_.size());

  const std::vector<uint32_t> alive_pods = RestoreSlabStructure(pod_slab_, r);
  pod_hot_.assign(pod_slab_.capacity(), PodHot{});
  for (const uint32_t i : alive_pods) {
    Pod& p = pod_slab_.slot_value(i);
    PodHot& h = pod_hot_[i];
    p.self = SlabHandle{i, pod_slab_.slot_generation(i)};
    p.id = static_cast<trace::PodId>(r.U64());
    const uint64_t function = r.U64();
    COLDSTART_CHECK_LT(function, population_.functions.size());
    p.function = static_cast<trace::FunctionId>(function);
    const uint32_t region = r.U32();
    COLDSTART_CHECK_LT(region, profiles_.size());
    p.region = static_cast<trace::RegionId>(region);
    p.cluster = static_cast<trace::ClusterId>(r.U32());
    const uint8_t config = r.U8();
    COLDSTART_CHECK_LT(config, trace::kNumResourceConfigs);
    p.config = static_cast<trace::ResourceConfig>(config);
    p.cold_start_begin = r.I64();
    h.ready_time = r.I64();
    p.cold_start_us = r.U32();
    h.last_busy_end = r.I64();
    p.served = r.U32();
    p.prewarmed = r.U8() != 0;
    p.idle_us = r.I64();
    // Only running requests were saved: each ends after the clock, and they
    // fit the function's concurrency.
    const uint64_t num_ends = r.U64();
    const int concurrency = population_.functions[p.function].pod_concurrency;
    COLDSTART_CHECK_LE(num_ends, static_cast<uint64_t>(concurrency));
    h.slots_used = static_cast<int>(num_ends);
    for (size_t k = 0; k < num_ends; ++k) {
      const SimTime end = r.I64();
      COLDSTART_CHECK_GT(end, now);
      COLDSTART_CHECK_LE(end, h.last_busy_end);
      p.ends[k] = end;
      h.next_end = std::min(h.next_end, end);
    }
  }

  // Every alive pod sits in exactly its own function's list, once.
  COLDSTART_CHECK_EQ(r.U64(), states_.size());
  std::vector<uint8_t> listed(pod_slab_.capacity(), 0);
  size_t num_listed = 0;
  for (size_t fid = 0; fid < states_.size(); ++fid) {
    COLDSTART_CHECK(states_[fid].pods.empty());
    for (uint64_t k = r.U64(); k > 0; --k, ++num_listed) {
      const uint32_t index = r.U32();
      Pod& pod = pod_slab_.slot_value(index);
      COLDSTART_CHECK(pod.function == fid && listed[index]++ == 0);
      states_[fid].pods.push_back(&pod);
    }
  }
  COLDSTART_CHECK_EQ(num_listed, pod_slab_.alive_count());

  arrival_cursor_.RestoreGuard(r.I64());

  // The pending-event table, re-queued under the original (time, seq) keys
  // (push order is free: the queue orders restored keys by (time, seq)).
  for (const uint32_t i : RestoreSlabStructure(events_, r)) {
    PendingEvent& e = events_.slot_value(i);
    const uint8_t kind = r.U8();
    COLDSTART_CHECK_LE(kind, static_cast<uint8_t>(EventKind::kPolicyTick));
    e.kind = static_cast<EventKind>(kind);
    e.delay_exempt = r.U8() != 0;
    const uint32_t region = r.U32();
    COLDSTART_CHECK_LT(region, profiles_.size());
    e.region = static_cast<trace::RegionId>(region);
    const uint64_t function = r.U64();
    COLDSTART_CHECK_LT(function, population_.functions.size());
    e.function = static_cast<trace::FunctionId>(function);
    const SimTime time = r.I64();
    COLDSTART_CHECK_GT(time, now);
    const uint64_t seq = r.U64();
    e.pod.index = r.U32();
    e.pod.gen = r.U32();
    e.keep_alive = r.I64();
    const SlabHandle h{i, events_.slot_generation(i)};
    e.entry = sim_.RestoreEvent(time, seq, h.Pack());
    if (e.kind == EventKind::kKeepAlive) {
      // Re-link the pod's keep-alive; a pod gets at most one.
      Pod* pod = pod_slab_.Resolve(e.pod);
      COLDSTART_CHECK(pod != nullptr && events_.Resolve(pod->keep_alive) == nullptr);
      pod->keep_alive = h;
    }
    COLDSTART_CHECK(e.kind != EventKind::kPolicyTick || policy_ != nullptr);
    COLDSTART_CHECK(e.kind != EventKind::kDayStart || time % kDay == 0);
  }
  // Every pod came back with exactly one live keep-alive (as on save): the
  // re-link above refuses a second, and this refuses none.
  for (const uint32_t i : alive_pods) {
    COLDSTART_CHECK(events_.Resolve(pod_slab_.slot_value(i).keep_alive) != nullptr);
  }

  const uint8_t has_stream = r.U8();
  COLDSTART_CHECK_LE(has_stream, 1);
  const std::string stream_state = r.Str();
  COLDSTART_CHECK_EQ(has_stream == 1, stream != nullptr);
  if (has_stream == 1) {
    arrival_stream_ = std::move(stream);
    ByteReader sr(stream_state);
    COLDSTART_CHECK(arrival_stream_->RestoreState(sr));
    COLDSTART_CHECK(sr.AtEnd());
    sim_.AttachSource(&arrival_cursor_);
    source_attached_ = true;
  }
}

void Platform::Finalize() {
  // Conservation: settled to the clock, each cell's load counters count
  // exactly the cold starts still in flight.
  for (const Cell& cell : cells_) {
    SettleLoad(cell);
    CheckLoadConservation(cell);
  }
  sink_.OnHorizon(calendar_.horizon());
  // Pods alive at the end of the trace are censored at the horizon, mirroring how the
  // dataset's month boundary truncates pod lifetimes.
  std::vector<Pod*> remaining;
  remaining.reserve(pod_slab_.alive_count());
  pod_slab_.ForEachAlive([&remaining](Pod& pod) { remaining.push_back(&pod); });
  // Flush in pod-id order (slot order reflects freelist reuse, not creation).
  std::sort(remaining.begin(), remaining.end(),
            [](const Pod* a, const Pod* b) { return a->id < b->id; });
  for (Pod* pod : remaining) {
    // Censor at the horizon, but never before the pod's own activity (a request can
    // still be executing when the trace ends).
    const PodHot& h = hot(*pod);
    KillPod(pod, std::max({calendar_.horizon(), h.ready_time, h.last_busy_end}));
  }
  // Cost-ledger totals, one record per region in index order — after the pod
  // flush so censored pods are included. Shards emit their partial sums; the
  // sink-side merge is integer addition, so geometry cannot perturb a bit.
  for (size_t r = 0; r < profiles_.size(); ++r) {
    sink_.OnRegionCost(cost_ledger_.region_record(static_cast<trace::RegionId>(r)));
  }
}

}  // namespace coldstart::platform
