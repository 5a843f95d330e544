// Micro-benchmarks of the simulator hot paths (google-benchmark): event queue
// throughput (key heap over a handler slab vs. the seed's priority-queue
// baseline), mixed-horizon scheduling, streaming arrival injection, pod slab
// churn, staged pool acquisition, the cold-start pipeline, the end-to-end
// sharded-vs-serial experiment runner, and the paper-scale month driver (serial
// vs region-sharded vs sub-region-sharded).
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"
#include "platform/coldstart_model.h"
#include "platform/platform.h"
#include "platform/pod_slab.h"
#include "platform/resource_pool.h"
#include "sim/simulator.h"
#include "workload/arrivals.h"
#include "workload/population.h"

using namespace coldstart;

namespace {

// The seed event core (std::priority_queue of std::function closures), kept here
// as the measured baseline for the simulator's event queue.
class HeapBaselineSim {
 public:
  using Handler = std::function<void()>;

  SimTime now() const { return now_; }

  void ScheduleAt(SimTime t, Handler fn) {
    queue_.push(Event{t, next_seq_++, std::move(fn)});
  }

  uint64_t RunToCompletion() {
    uint64_t processed = 0;
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      Handler fn = std::move(const_cast<Event&>(top).fn);
      now_ = top.time;
      queue_.pop();
      fn();
      ++processed;
    }
    return processed;
  }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    Handler fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
};

// Mixed-horizon delay: mimics the platform's scheduling mix. Roughly half the
// events land within milliseconds (executions), a third within seconds (long
// executions), the rest at the keep-alive minute or hours out (far timers).
SimDuration MixedHorizonDelay(Rng& rng) {
  const double p = rng.NextDouble();
  if (p < 0.50) {
    return 1 + static_cast<SimDuration>(rng.NextBounded(20 * kMillisecond));
  }
  if (p < 0.80) {
    return 1 + static_cast<SimDuration>(rng.NextBounded(5 * kSecond));
  }
  if (p < 0.95) {
    return kMinute;
  }
  return 1 + static_cast<SimDuration>(rng.NextBounded(4 * kHour));
}

}  // namespace

static void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int64_t counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.ScheduleAt(i * 10, [&counter] { ++counter; });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

static void BM_EventQueueScheduleRunHeapBaseline(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    HeapBaselineSim sim;
    int64_t counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.ScheduleAt(i * 10, [&counter] { ++counter; });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRunHeapBaseline)->Arg(1024)->Arg(65536);

// Steady-state scheduling at mixed horizons: self-rescheduling chains each hop
// MixedHorizonDelay forward until the total event budget is consumed, so near
// and far keys interleave in the heap and slab slots are recycled at the rate
// events fire. The chain count is the in-flight queue size: 64 models a small
// scenario, 4096 the dense queues of month-scale runs.
static void BM_EventQueueMixedHorizons(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  const int total = static_cast<int>(state.range(1));
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(99);
    int64_t remaining = total;
    std::function<void()> hop = [&] {
      if (--remaining > 0) {
        sim.ScheduleAfter(MixedHorizonDelay(rng), [&hop] { hop(); });
      }
    };
    for (int c = 0; c < chains; ++c) {
      sim.ScheduleAt(MixedHorizonDelay(rng), [&hop] { hop(); });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_EventQueueMixedHorizons)->Args({64, 65536})->Args({4096, 65536});

static void BM_EventQueueMixedHorizonsHeapBaseline(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  const int total = static_cast<int>(state.range(1));
  for (auto _ : state) {
    HeapBaselineSim sim;
    Rng rng(99);
    int64_t remaining = total;
    std::function<void()> hop = [&] {
      if (--remaining > 0) {
        sim.ScheduleAt(sim.now() + MixedHorizonDelay(rng), [&hop] { hop(); });
      }
    };
    for (int c = 0; c < chains; ++c) {
      sim.ScheduleAt(MixedHorizonDelay(rng), [&hop] { hop(); });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_EventQueueMixedHorizonsHeapBaseline)
    ->Args({64, 65536})
    ->Args({4096, 65536});

// End-to-end arrival injection: one synchronous function, `n` arrivals across a
// day, streamed through the platform's arrival cursor. Items = arrivals.
static void BM_ArrivalInjection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  workload::Calendar::Options copts;
  copts.trace_days = 1;
  const workload::Calendar calendar(copts);
  const auto profiles =
      std::vector<workload::RegionProfile>{workload::DefaultRegionProfiles()[0]};

  workload::FunctionSpec f;
  f.id = 0;
  f.user = 0;
  f.region = 0;
  f.runtime = trace::Runtime::kPython3;
  f.primary_trigger = trace::Trigger::kApigSync;
  f.exec_median_us = 5e3;
  f.exec_sigma = 0.3;
  f.pod_concurrency = 8;
  f.code_size_kb = 100;
  f.dep_size_kb = 0;

  std::vector<workload::ArrivalEvent> arrivals;
  arrivals.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    arrivals.push_back(
        {static_cast<SimTime>(i) * (kDay / n), 0});
  }

  for (auto _ : state) {
    workload::Population pop;
    pop.functions = {f};
    pop.num_users = 1;
    pop.region_begin = {0, 1};
    sim::Simulator sim;
    trace::TraceStore store;
    platform::Platform::Options opts;
    opts.seed = 7;
    opts.record_requests = false;
    platform::Platform platform(pop, profiles, calendar, sim, store, opts);
    platform.AttachArrivalStream(
        std::make_unique<workload::MaterializedArrivalStream>(arrivals, workload::NumDayChunks(calendar)));
    sim.RunUntil(calendar.horizon());
    platform.Finalize();
    benchmark::DoNotOptimize(platform.total_cold_starts());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ArrivalInjection)->Arg(100000);

// Pod slab churn: allocate a working set, then cycle free+allocate with handle
// resolution, the steady-state pattern of OnRequestComplete/ArmKeepAlive/KillPod.
static void BM_PodSlabChurn(benchmark::State& state) {
  platform::Slab<platform::Pod> slab;
  std::vector<platform::SlabHandle> handles;
  for (int i = 0; i < 1024; ++i) {
    handles.push_back(slab.Allocate().second);
  }
  size_t next = 0;
  for (auto _ : state) {
    platform::Pod* pod = slab.Resolve(handles[next]);
    benchmark::DoNotOptimize(pod->served);
    slab.Free(handles[next]);
    handles[next] = slab.Allocate().second;
    next = (next + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PodSlabChurn);

static void BM_PodSlabChurnMapBaseline(benchmark::State& state) {
  // The seed's storage: id-keyed unordered_map of heap-allocated pods.
  std::unordered_map<uint64_t, std::unique_ptr<platform::Pod>> pods;
  std::vector<uint64_t> ids;
  uint64_t next_id = 0;
  for (int i = 0; i < 1024; ++i) {
    pods.emplace(next_id, std::make_unique<platform::Pod>());
    ids.push_back(next_id++);
  }
  size_t next = 0;
  for (auto _ : state) {
    const auto it = pods.find(ids[next]);
    benchmark::DoNotOptimize(it->second->served);
    pods.erase(it);
    pods.emplace(next_id, std::make_unique<platform::Pod>());
    ids[next] = next_id++;
    next = (next + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PodSlabChurnMapBaseline);

static void BM_PoolAcquireRelease(benchmark::State& state) {
  platform::ResourcePool pool(32, 4.0);
  Rng rng(7);
  SimTime now = 0;
  for (auto _ : state) {
    now += kSecond;
    const auto acq = pool.Acquire(now, rng);
    benchmark::DoNotOptimize(acq.stage);
    pool.Release(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAcquireRelease);

static void BM_ColdStartModel(benchmark::State& state) {
  const auto& profiles = workload::DefaultRegionProfiles();
  const workload::Calendar calendar;
  const platform::ColdStartModel model(profiles[0], calendar);
  platform::ResourcePool pool(32, 4.0);
  platform::RegionLoadState load;
  load.active_cold_starts = 5;
  load.active_code_deploys = 5;
  load.active_dep_deploys = 2;
  workload::FunctionSpec spec;
  spec.code_size_kb = 2048;
  spec.dep_size_kb = 8192;
  Rng rng(11);
  SimTime now = 0;
  for (auto _ : state) {
    now += kSecond;
    const auto comp = model.Compute(spec, pool, load, now, rng);
    benchmark::DoNotOptimize(comp.total());
    pool.Release(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdStartModel);

static void BM_PopulationGeneration(benchmark::State& state) {
  const auto& profiles = workload::DefaultRegionProfiles();
  for (auto _ : state) {
    const auto pop = workload::GeneratePopulation(profiles, 42);
    benchmark::DoNotOptimize(pop.functions.size());
  }
}
BENCHMARK(BM_PopulationGeneration);

// End-to-end experiment wall clock, serial vs region-sharded. The argument is the
// worker-thread cap handed to Experiment::Run (1 = the serial path); results are
// bit-identical across arguments, so this measures pure scheduling gain. On a
// >=4-core host the 5-region scenario shards to ~the slowest region's share, giving
// the >=2x speedup the BENCH_simcore.json trajectory tracks; on fewer cores the
// sharded entries degenerate gracefully toward serial.
static void BM_ShardedExperiment(benchmark::State& state) {
  core::ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  config.record_requests = false;  // Wall clock should measure simulation, not logging.
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Experiment experiment(config);
    const auto result = experiment.Run(nullptr, threads);
    benchmark::DoNotOptimize(result.store.cold_starts().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedExperiment)
    ->Arg(1)   // Serial baseline.
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Paper-scale month driver: the PaperScenario geometry (5 regions, 31 days)
// down-scaled in load so the benchmark stays runnable in CI, in kStreaming mode
// so trace memory stays O(1) at month scale. The argument pair is
// (threads, cells_per_region), and a sharded run takes K = cells:
//   {1, 1}  — serial baseline on the legacy cells=1 scenario,
//   {5, 1}  — region sharding only (K=1: 5 shards, one per region),
//   {1, 4}  — serial baseline on the cells=4 scenario,
//   {16, 4} — sub-region sharding (K=4: 20 (region, cell-group) shards).
// Each sharded row produces aggregates bit-identical to the serial row of its
// scenario (the determinism suite pins this), so the wall-clock deltas are
// pure scheduling gain; on hosts with fewer cores than shards the rows
// degenerate gracefully toward serial. The cells=1 and cells=4 scenarios
// differ by design (per-cell pools) and are not comparable bit-for-bit.
static void BM_PaperScaleMonth(benchmark::State& state) {
  core::ScenarioConfig config = core::PaperScenario();
  config.scale = 0.05;  // CI-sized month: full calendar, ~5% of the functions.
  config.trace_mode = core::TraceMode::kStreaming;
  config.record_requests = false;
  const int threads = static_cast<int>(state.range(0));
  config.cells_per_region = static_cast<uint32_t>(state.range(1));
  for (auto _ : state) {
    core::Experiment experiment(config);
    const auto result = experiment.Run(nullptr, threads);
    benchmark::DoNotOptimize(result.events_processed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PaperScaleMonth)
    ->Args({1, 1})   // Legacy serial (cells=1 scenario).
    ->Args({5, 1})   // Region-sharded (K=1).
    ->Args({1, 4})   // Serial baseline, cells=4 scenario.
    ->Args({16, 4})  // Sub-region-sharded (K=4).
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Iterations(1);

// Full-trace vs streaming-sink recording on the identical serial simulation: the
// argument is the TraceMode (0 = kFull materializes every record in a TraceStore,
// 1 = kStreaming folds records into StreamingAggregates). The delta is the pure
// record-append/seal overhead of full materialization; the memory story (O(days)
// vs O(1)) is quantified by bench_abl08_streaming and the year_scale example.
static void BM_TraceModeExperiment(benchmark::State& state) {
  core::ScenarioConfig config = core::SmallScenario();
  config.days = 3;
  config.trace_mode =
      state.range(0) == 0 ? core::TraceMode::kFull : core::TraceMode::kStreaming;
  for (auto _ : state) {
    core::Experiment experiment(config);
    const auto result = experiment.Run(nullptr, /*num_threads=*/1);
    benchmark::DoNotOptimize(result.events_processed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
// Chunked vs materialized arrival generation on the identical stream: the
// argument is the delivery mode (0 = drain into one eager vector, 1 = pull day
// chunks and discard). Both perform the same RNG work — the wall-clock delta is
// the pure cost of growing/holding the O(days) vector; the memory story (max
// one-day chunk vs whole horizon) is quantified by bench_abl09_chunked_arrivals.
static void BM_ArrivalGeneration(benchmark::State& state) {
  core::ScenarioConfig config = core::SmallScenario();
  config.days = 7;
  const workload::Calendar calendar = config.MakeCalendar();
  const auto profiles = config.ScaledProfiles();
  const workload::Population pop =
      workload::GeneratePopulation(profiles, config.seed);
  const bool chunked = state.range(0) == 1;
  int64_t arrivals = 0;
  for (auto _ : state) {
    auto stream = config.workload_source().OpenStream(pop, profiles, calendar,
                                                      config.seed);
    if (chunked) {
      workload::ArrivalChunk chunk;
      while (stream->NextChunk(&chunk)) {
        arrivals += static_cast<int64_t>(chunk.events.size());
      }
    } else {
      const auto eager = workload::DrainArrivalStream(*stream);
      arrivals += static_cast<int64_t>(eager.size());
    }
  }
  benchmark::DoNotOptimize(arrivals);
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ArrivalGeneration)
    ->Arg(0)   // Materialized vector.
    ->Arg(1)   // Day-chunked pull.
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TraceModeExperiment)
    ->Arg(0)   // kFull.
    ->Arg(1)   // kStreaming.
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
