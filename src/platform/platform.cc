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
  // One independent substream, pod-id namespace, and request-id namespace per
  // (region, cell): a cell's draw sequence must not depend on what other cells
  // (or regions) do, or a sub-region sharded run could not reproduce the serial
  // run. The pod-id region field holds indices 0 .. 2^(32-shift) - 1, so
  // exactly 2^(32-shift) regions fit.
  COLDSTART_CHECK_LE(profiles_.size(),
                     static_cast<size_t>(1) << (32 - kPodIdRegionShift));
  cells_ = options_.cells_per_region;
  COLDSTART_CHECK_GE(cells_, 1u);
  if (cells_ > 1) {
    COLDSTART_CHECK(options_.function_cells != nullptr);
    COLDSTART_CHECK_EQ(options_.function_cells->size(),
                       population_.functions.size());
  }
  cell_bits_ = CeilLog2(cells_);
  COLDSTART_CHECK_LT(cell_bits_, static_cast<uint32_t>(kPodIdRegionShift));
  pod_seq_bits_ = static_cast<uint32_t>(kPodIdRegionShift) - cell_bits_;
  pod_seq_mask_ = (trace::PodId{1} << pod_seq_bits_) - 1;
  const uint64_t rng_base = MixHash(options.seed, HashString("platform"));
  const size_t num_states = profiles_.size() * cells_;
  rngs_.reserve(num_states);
  for (size_t r = 0; r < profiles_.size(); ++r) {
    if (cells_ == 1) {
      // The legacy per-region stream, bit for bit (the golden digest pins it).
      rngs_.emplace_back(MixHash(rng_base, r));
    } else {
      for (uint32_t c = 0; c < cells_; ++c) {
        rngs_.emplace_back(MixHash(MixHash(rng_base, r), c));
      }
    }
  }
  next_pod_seq_.assign(num_states, 0);
  next_request_seq_.assign(num_states, 0);
  models_.reserve(profiles_.size());
  pools_.reserve(num_states);
  for (const auto& profile : profiles_) {
    models_.emplace_back(profile, calendar_);
    for (uint32_t cell = 0; cell < cells_; ++cell) {
      std::vector<ResourcePool> cell_pools;
      cell_pools.reserve(trace::kNumResourceConfigs);
      for (int c = 0; c < trace::kNumResourceConfigs; ++c) {
        const int base = profile.pool_base_size[static_cast<size_t>(c)];
        // Cells split the region's pool capacity without losing a unit to
        // rounding: cell k of C gets base*(k+1)/C - base*k/C (the whole base at
        // C == 1). Refill splits as an exact double division (x / 1.0 == x).
        const int target =
            base * static_cast<int>(cell + 1) / static_cast<int>(cells_) -
            base * static_cast<int>(cell) / static_cast<int>(cells_);
        cell_pools.emplace_back(target, profile.pool_refill_per_min / cells_);
      }
      pools_.push_back(std::move(cell_pools));
    }
  }
  loads_.resize(num_states);
  visible_cold_starts_.assign(profiles_.size(), 0);
  cold_start_latency_sum_us_.assign(profiles_.size(), 0);
  cost_ledger_ = ResourceCostLedger(profiles_.size());
  states_.resize(population_.functions.size());
  for (const auto& f : population_.functions) {
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

  if (policy_ != nullptr) {
    policy_->OnAttach(*this);
    // The minute tick is platform-managed so its (time, seq) key is recorded
    // and a checkpoint restore can re-queue it. It consumes one seq here and one
    // per reschedule after the tick body runs. On resume the restored state
    // re-queues the pending tick instead.
    if (!options_.resuming && calendar_.horizon() > 0) {
      SchedulePolicyTick(0);
    }
  }
}

void Platform::SchedulePolicyTick(SimTime t) {
  policy_tick_time_ = t;
  policy_tick_seq_ = sim_.next_seq();
  sim_.ScheduleAt(t, [this] { RunPolicyTick(); });
}

void Platform::RunPolicyTick() {
  // Fire first, then reschedule — the Recur closure this replaces ran the body
  // before consuming the next tick's seq, and the order must match exactly.
  policy_->OnMinuteTick(sim_.now());
  const SimTime next = sim_.now() + kMinute;
  if (next < calendar_.horizon()) {
    SchedulePolicyTick(next);
  } else {
    policy_tick_time_ = -1;
  }
}

Platform::~Platform() {
  if (source_attached_) {
    sim_.AttachSource(nullptr);
  }
}

void Platform::ArrivalCursor::Open(size_t count, uint64_t seq_base) {
  // Day batches never overlap: every arrival of the previous day is strictly
  // earlier than the next day's starter event.
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
  // The stream contract requires sorted arrivals (the old per-arrival closures
  // re-ordered them through the queue; the cursor replays them as-is). Fail
  // loudly rather than silently rewinding the clock.
  COLDSTART_CHECK_GE(arrival.time, last_time_);
  last_time_ = arrival.time;
  // Batched drain: dispatch the whole same-timestamp run in one call. The day
  // chunk's seq range is contiguous and reserved at the day starter, so every
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
    return;  // Exhausted stream: the remaining starters are no-ops.
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
  // starter event pulls its day's chunk and reserves the batch's contiguous seq
  // range (the same sequence numbers per-arrival closures would have consumed),
  // so a year of arrivals costs one live chunk plus one starter per day instead
  // of one queued closure per arrival. Scheduling every starter up front (at
  // attach time) keeps starter seq numbers below every run-time event's, exactly
  // like the eagerly scheduled batches they replace — see docs/determinism.md.
  COLDSTART_CHECK(arrival_stream_ == nullptr && !source_attached_);
  arrival_stream_ = std::move(stream);
  if (arrival_stream_ == nullptr) {
    return;
  }
  const SimTime horizon = calendar_.horizon();
  bool any = false;
  starter_seq_base_ = sim_.next_seq();  // Day k's starter is seq base + k.
  for (int64_t day = 0; day * kDay < horizon; ++day) {
    // Wake exactly at the day boundary (covers the t=0 first arrival: day_start
    // is never negative). Anchoring the batch's seq reservation at day start —
    // rather than at "first arrival - 1", which depends on which regions the
    // stream contains — keeps the (time, seq) interleaving of arrivals and
    // handler-scheduled events identical between the serial run and per-region
    // shards.
    sim_.ScheduleAt(day * kDay, [this, day] { OpenDayChunk(day); });
    any = true;
    ++num_starters_;
  }
  if (any) {
    sim_.AttachSource(&arrival_cursor_);
    source_attached_ = true;
  }
}

const workload::FunctionSpec& Platform::spec(FunctionId function) const {
  return population_.functions.at(function);
}

ResourcePool& Platform::pool(RegionId region, trace::ResourceConfig config) {
  COLDSTART_CHECK_EQ(cells_, 1u);
  return pools_.at(region).at(static_cast<size_t>(config));
}

bool Platform::HasAvailablePod(FunctionId function) const {
  const int concurrency = population_.functions.at(function).pod_concurrency;
  for (const Pod* pod : states_[function].pods) {
    if (hot(*pod).slots_used < concurrency) {
      return true;
    }
  }
  return false;
}

int Platform::alive_pod_count(FunctionId function) const {
  return static_cast<int>(states_.at(function).pods.size());
}

int64_t Platform::cold_starts(RegionId region) const {
  return visible_cold_starts_.at(region);
}

int64_t Platform::total_cold_starts() const {
  int64_t total = 0;
  for (const int64_t c : visible_cold_starts_) {
    total += c;
  }
  return total;
}

int64_t Platform::cold_start_latency_sum_us(RegionId region) const {
  return cold_start_latency_sum_us_.at(region);
}

uint64_t Platform::pods_created() const {
  uint64_t total = 0;
  for (const trace::PodId seq : next_pod_seq_) {
    total += seq;
  }
  return total;
}

trace::PodId Platform::NewPodId(RegionId region, uint32_t cell) {
  const trace::PodId seq = next_pod_seq_[StateIndex(region, cell)]++;
  // Strict: the last (region, cell, seq) combination would collide with
  // kInvalidPod. At cells_ == 1 this is the legacy region | seq layout exactly.
  COLDSTART_CHECK_LT(seq, pod_seq_mask_);
  return (static_cast<trace::PodId>(region) << kPodIdRegionShift) |
         (static_cast<trace::PodId>(cell) << pod_seq_bits_) | seq;
}

int64_t Platform::scratch_allocations(RegionId region) const {
  int64_t total = 0;
  for (uint32_t cell = 0; cell < cells_; ++cell) {
    for (const auto& pool : pools_.at(StateIndex(region, cell))) {
      total += pool.scratch_count();
    }
  }
  return total;
}

Pod* Platform::FindPodWithSlot(FunctionState& state, int concurrency,
                               SimTime now) const {
  // The scan touches only the SoA hot entries: `concurrency` is hoisted by the
  // caller, so no per-pod spec lookup, and the cold Pod fields stay untouched.
  Pod* best_warm = nullptr;
  Pod* best_warming = nullptr;
  SimTime best_warm_lru = 0;
  SimTime best_warming_ready = 0;
  for (Pod* pod : state.pods) {
    const PodHot& h = hot(*pod);
    if (h.slots_used >= concurrency) {
      continue;
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
       rng(region, CellOf(spec.id)).NextBounded(trace::kClustersPerRegion - 1)) %
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
  const uint32_t cell = CellOf(spec.id);
  const size_t idx = StateIndex(region, cell);
  RegionLoadState& load = loads_[idx];

  ResourcePool& pool = pools_[idx][static_cast<size_t>(spec.config)];
  load.ObserveColdStart(now);  // The event contributes to its own congestion window.
  ColdStartComponents comp =
      models_[region].Compute(spec, pool, load, now, rng(region, cell));
  comp.scheduling += extra_sched_us;
  if (comp.from_scratch) {
    cost_ledger_.AddScratchCreation(region);
  }

  auto [pod, handle] = pod_slab_.Allocate();
  if (pod_hot_.size() < pod_slab_.capacity()) {
    pod_hot_.resize(pod_slab_.capacity());
  }
  pod->self = handle;
  pod->id = NewPodId(region, cell);
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
  h.slots_used = 0;

  // Load counters stay elevated for the duration of the pipeline; the decrements are
  // what make congestion oscillate with the cold-start rate.
  ++load.active_cold_starts;
  ++load.active_code_deploys;
  if (spec.dep_size_kb > 0) {
    ++load.active_dep_deploys;
  }
  PendingEvent* decrement = ScheduleEvent(EventKind::kLoadDecrement, h.ready_time).first;
  decrement->region = region;
  decrement->function = spec.id;

  if (prewarmed) {
    ++load.prewarm_spawns;
  } else {
    ++visible_cold_starts_[region];
    cold_start_latency_sum_us_[region] += comp.total();
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
  if (h.slots_used == 0 && exec_start > h.last_busy_end) {
    // The pod sat warm and empty from its last busy end until this request;
    // the interval is warm-idle capacity the cost ledger charges at death.
    pod->idle_us += exec_start - h.last_busy_end;
  }
  // The pod is busy again: cancel its pending keep-alive, if any.
  if (events_.Resolve(pod->keep_alive) != nullptr) {
    events_.Free(pod->keep_alive);
  }
  ++h.slots_used;
  double exec_us = std::exp(states_[spec.id].log_exec_median_us +
                            spec.exec_sigma *
                                rng(pod->region, CellOf(spec.id)).NextGaussian());
  exec_us = std::clamp(exec_us, 100.0, 600e6);
  const uint32_t exec = static_cast<uint32_t>(exec_us);
  const SimTime exec_end = exec_start + exec;

  PendingEvent* completion = ScheduleEvent(EventKind::kCompletion, exec_end).first;
  completion->function = spec.id;
  completion->pod = pod->self;
  completion->exec_start = exec_start;
}

void Platform::OnRequestComplete(SlabHandle handle, SimTime exec_start,
                                 SimTime exec_end, const FunctionSpec& spec) {
  Pod* pod = pod_slab_.Resolve(handle);
  COLDSTART_CHECK(pod != nullptr);  // A pod with a bound request cannot die.
  PodHot& h = hot(*pod);
  COLDSTART_CHECK_GT(h.slots_used, 0);
  --h.slots_used;
  ++pod->served;
  h.last_busy_end = std::max(h.last_busy_end, exec_end);

  // The pod's function equals spec.id here, so one cell lookup covers the id
  // mint, the resource draws, and the fan-out below.
  const uint32_t cell = CellOf(spec.id);
  const size_t idx = StateIndex(pod->region, cell);
  if (options_.record_requests) {
    trace::RequestRecord rec;
    rec.timestamp = exec_start;
    // Request ids mix a per-(region, cell) counter under a matching salt, so the
    // id stream is identical whether the cell ran alone (sharded) or alongside
    // the others. At cells_ == 1 the salt is the legacy per-region one exactly.
    uint64_t salt = MixHash(0x9e3779b9, pod->region);
    if (cells_ > 1) {
      salt = MixHash(salt, cell);
    }
    rec.request_id = MixHash(salt, next_request_seq_[idx]++);
    rec.pod_id = pod->id;
    rec.function_id = spec.id;
    rec.user_id = spec.user;
    rec.region = pod->region;
    rec.cluster = pod->cluster;
    rec.execution_time_us = static_cast<uint32_t>(exec_end - exec_start);
    Rng& resource_rng = rng(pod->region, cell);
    if (draw_request_resources_) {
      double cpu = spec.cpu_mean_cores * std::exp(0.3 * resource_rng.NextGaussian());
      cpu = std::clamp(cpu, 0.005,
                       static_cast<double>(CpuMillicoresOf(spec.config)) / 1000.0);
      rec.cpu_millicores = static_cast<uint16_t>(cpu * 1000.0);
      double mem_kb = spec.mem_mean_kb * std::exp(0.25 * resource_rng.NextGaussian());
      mem_kb = std::clamp(mem_kb, 1024.0,
                          1024.0 * static_cast<double>(MemoryMbOf(spec.config)));
      rec.memory_kb = static_cast<uint32_t>(mem_kb);
    } else {
      // The sink never reads these fields. Two Box-Muller draws are two words
      // each; discarding them keeps the stream aligned with a full-record run.
      resource_rng.Discard(4);
    }
    sink_.OnRequest(rec);
  }

  // Workflow fan-out: downstream functions are invoked when the parent finishes.
  // Draws come from the parent's home-(region, cell) stream (children are wired
  // within the region and share the parent's cell by construction —
  // workload/function_cells.h — so sharded runs replay exactly this sequence).
  for (const auto& edge : spec.children) {
    Rng& fanout_rng = rng(spec.region, cell);
    if (fanout_rng.NextBool(edge.probability)) {
      const SimDuration delay = FromSeconds(fanout_rng.Uniform(0.005, 0.05));
      ScheduleEvent(EventKind::kInvoke, exec_end + delay).first->function = edge.child;
    }
  }

  if (h.slots_used == 0) {
    const SimDuration keep_alive = policy_ != nullptr
                                       ? policy_->KeepAliveFor(spec, sim_.now())
                                       : options_.default_keep_alive;
    ArmKeepAlive(pod, sim_.now() + keep_alive);
  }
}

std::pair<Platform::PendingEvent*, SlabHandle> Platform::ScheduleEvent(EventKind kind,
                                                                      SimTime t) {
  auto [event, h] = events_.Allocate();
  event->kind = kind;
  event->time = t;
  event->seq = sim_.next_seq();
  sim_.ScheduleAt(t, [this, h = h] { Fire(h); });
  return {event, h};
}

void Platform::Fire(SlabHandle h) {
  const PendingEvent* live = events_.Resolve(h);
  if (live == nullptr) {
    return;  // Cancelled: a keep-alive whose pod took a request.
  }
  const PendingEvent e = *live;
  events_.Free(h);
  switch (e.kind) {
    case EventKind::kCompletion:
      OnRequestComplete(e.pod, e.exec_start, e.time, population_.functions[e.function]);
      return;
    case EventKind::kInvoke:
      HandleArrivalBatch(e.function, 1, e.delay_exempt);
      return;
    case EventKind::kKeepAlive: {
      // Only its keep-alive kills a pod mid-run, and a request cancels it first.
      Pod* pod = pod_slab_.Resolve(e.pod);
      COLDSTART_CHECK(pod != nullptr && hot(*pod).slots_used == 0);
      KillPod(pod, e.time);
      return;
    }
    case EventKind::kLoadDecrement: {
      RegionLoadState& l = loads_[StateIndex(e.region, CellOf(e.function))];
      --l.active_cold_starts;
      --l.active_code_deploys;
      if (population_.functions[e.function].dep_size_kb > 0) {
        --l.active_dep_deploys;
      }
      return;
    }
    case EventKind::kPrewarm:
      if (!HasAvailablePod(e.function)) {
        SpawnPrewarmedPod(e.function, e.region, e.keep_alive);
      }
      return;
  }
}

void Platform::ArmKeepAlive(Pod* pod, SimTime expiry) {
  auto [event, h] = ScheduleEvent(EventKind::kKeepAlive, expiry);
  event->pod = pod->self;
  pod->keep_alive = h;
}

void Platform::KillPod(Pod* pod, SimTime death_time) {
  const FunctionSpec& spec = population_.functions[pod->function];
  const PodHot& h = hot(*pod);
  if (workload::TraitsOf(spec.runtime).pool_backed) {
    pools_[StateIndex(pod->region, CellOf(pod->function))]
          [static_cast<size_t>(pod->config)]
              .Release(death_time);
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
  if (death_time > h.last_busy_end && h.slots_used == 0) {
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
  const size_t load_idx = StateIndex(fspec.region, CellOf(fid));
  FunctionState& state = states_[fid];
  const int concurrency = fspec.pod_concurrency;

  for (size_t k = 0; k < count; ++k) {
    if (policy_ != nullptr) {
      policy_->OnArrival(fspec, now);
      if (!fspec.children.empty()) {
        policy_->OnParentRequestStart(fspec, now);
      }
      if (!delay_exempt && !trace::IsSynchronous(fspec.primary_trigger)) {
        const SimDuration delay = policy_->AdmissionDelay(fspec, now, loads_[load_idx]);
        if (delay > 0) {
          ++loads_[load_idx].delayed_allocations;
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
  // drained, and every pending event is reconstructible from the bookkeeping.
  COLDSTART_CHECK_EQ((now + 1) % kDay, 0);
  COLDSTART_CHECK(arrival_cursor_.drained());

  // RNG substreams and id namespaces.
  w.U64(rngs_.size());
  for (const Rng& r : rngs_) {
    uint64_t words[4];
    r.SaveState(words);
    w.Raw(words, sizeof(words));
  }
  for (const trace::PodId v : next_pod_seq_) {
    w.U64(v);
  }
  for (const uint64_t v : next_request_seq_) {
    w.U64(v);
  }
  for (const int64_t v : visible_cold_starts_) {
    w.I64(v);
  }
  for (const int64_t v : cold_start_latency_sum_us_) {
    w.I64(v);
  }

  // Per-region load counters (doubles travel as bit patterns).
  for (const RegionLoadState& l : loads_) {
    w.I64(l.active_cold_starts);
    w.I64(l.active_code_deploys);
    w.I64(l.active_dep_deploys);
    w.I64(l.prewarm_spawns);
    w.I64(l.delayed_allocations);
    w.F64(l.cold_start_window);
    w.I64(l.window_updated);
  }

  // Resource pools ([region][config], fixed layout from the profiles).
  for (const auto& region_pools : pools_) {
    for (const ResourcePool& pool : region_pools) {
      const ResourcePool::CheckpointState cs = pool.checkpoint_state();
      w.I64(cs.free);
      w.I64(cs.target);
      w.F64(cs.refill_credit);
      w.I64(cs.last_refill);
      w.I64(cs.scratch_count);
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
    w.I64(h.slots_used);
    w.I64(h.last_busy_end);
    w.U32(p.served);
    w.U8(p.prewarmed ? 1 : 0);
    w.I64(p.idle_us);
    // A pod is idle exactly while its keep-alive — the event that will kill
    // it — is pending. Restore re-links the keep-alive from the event table.
    COLDSTART_CHECK_EQ(h.slots_used == 0, events_.Resolve(p.keep_alive) != nullptr);
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

  // Arrival cursor guard + event-seq bookkeeping.
  w.I64(arrival_cursor_.last_time());
  w.U64(starter_seq_base_);
  w.I64(num_starters_);
  w.I64(policy_tick_time_);
  w.U64(policy_tick_seq_);

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
    w.I64(e.time);
    w.U64(e.seq);
    w.U32(e.pod.index);
    w.U32(e.pod.gen);
    w.I64(e.exec_start);
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

  COLDSTART_CHECK_EQ(r.U64(), rngs_.size());
  for (Rng& rng : rngs_) {
    uint64_t words[4];
    r.Raw(words, sizeof(words));
    rng.RestoreState(words);
  }
  for (trace::PodId& v : next_pod_seq_) {
    v = static_cast<trace::PodId>(r.U64());
  }
  for (uint64_t& v : next_request_seq_) {
    v = r.U64();
  }
  for (int64_t& v : visible_cold_starts_) {
    v = r.I64();
  }
  for (int64_t& v : cold_start_latency_sum_us_) {
    v = r.I64();
  }

  for (RegionLoadState& l : loads_) {
    l.active_cold_starts = static_cast<int>(r.I64());
    l.active_code_deploys = static_cast<int>(r.I64());
    l.active_dep_deploys = static_cast<int>(r.I64());
    l.prewarm_spawns = r.I64();
    l.delayed_allocations = r.I64();
    l.cold_start_window = r.F64();
    l.window_updated = r.I64();
  }

  for (auto& region_pools : pools_) {
    for (ResourcePool& pool : region_pools) {
      ResourcePool::CheckpointState cs;
      cs.free = static_cast<int>(r.I64());
      cs.target = static_cast<int>(r.I64());
      cs.refill_credit = r.F64();
      cs.last_refill = r.I64();
      cs.scratch_count = r.I64();
      pool.restore_checkpoint_state(cs);
    }
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
    h.slots_used = static_cast<int>(r.I64());
    h.last_busy_end = r.I64();
    p.served = r.U32();
    p.prewarmed = r.U8() != 0;
    p.idle_us = r.I64();
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
  starter_seq_base_ = r.U64();
  num_starters_ = r.I64();
  policy_tick_time_ = r.I64();
  policy_tick_seq_ = r.U64();

  // The pending-event table, re-queued under the original (time, seq) keys
  // (push order is free: the queue orders restored keys by (time, seq)).
  for (const uint32_t i : RestoreSlabStructure(events_, r)) {
    PendingEvent& e = events_.slot_value(i);
    const uint8_t kind = r.U8();
    COLDSTART_CHECK_LE(kind, static_cast<uint8_t>(EventKind::kPrewarm));
    e.kind = static_cast<EventKind>(kind);
    e.delay_exempt = r.U8() != 0;
    const uint32_t region = r.U32();
    COLDSTART_CHECK_LT(region, profiles_.size());
    e.region = static_cast<trace::RegionId>(region);
    const uint64_t function = r.U64();
    COLDSTART_CHECK_LT(function, population_.functions.size());
    e.function = static_cast<trace::FunctionId>(function);
    e.time = r.I64();
    COLDSTART_CHECK_GT(e.time, now);
    e.seq = r.U64();
    e.pod.index = r.U32();
    e.pod.gen = r.U32();
    e.exec_start = r.I64();
    e.keep_alive = r.I64();
    const SlabHandle h{i, events_.slot_generation(i)};
    if (e.kind == EventKind::kKeepAlive) {
      // Re-link the pod's keep-alive; a pod gets at most one.
      Pod* pod = pod_slab_.Resolve(e.pod);
      COLDSTART_CHECK(pod != nullptr && events_.Resolve(pod->keep_alive) == nullptr);
      pod->keep_alive = h;
    }
    sim_.RestoreEvent(e.time, e.seq, [this, h] { Fire(h); });
  }
  // Idle pods, and only those, came back with a keep-alive (as on save).
  for (const uint32_t i : alive_pods) {
    COLDSTART_CHECK_EQ(pod_hot_[i].slots_used == 0,
                       events_.Resolve(pod_slab_.slot_value(i).keep_alive) != nullptr);
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

  // Re-queue the scalar-keyed events: the remaining day starters and the tick.
  for (int64_t day = 0; day < num_starters_; ++day) {
    if (day * kDay > now) {
      sim_.RestoreEvent(day * kDay, starter_seq_base_ + static_cast<uint64_t>(day),
                        [this, day] { OpenDayChunk(day); });
    }
  }
  if (policy_tick_time_ >= 0) {
    COLDSTART_CHECK(policy_ != nullptr);
    sim_.RestoreEvent(policy_tick_time_, policy_tick_seq_,
                      [this] { RunPolicyTick(); });
  }
}

void Platform::Finalize() {
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
