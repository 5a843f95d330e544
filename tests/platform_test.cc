// Tests for the platform: pools, the cold-start pipeline, pod lifecycle, keep-alive,
// autoscaling, and workflow fan-out. Small hand-built scenarios with exact assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_serde.h"
#include "core/coldstart_lab.h"
#include "platform/coldstart_model.h"
#include "platform/platform.h"
#include "trace/trace_store.h"
#include "workload/arrivals.h"
#include "temp_dir.h"

namespace coldstart::platform {
namespace {

using trace::Runtime;
using trace::Trigger;
using workload::ArrivalKind;
using workload::FunctionSpec;

// --- Resource pool. ---

TEST(ResourcePoolTest, StartsFullAndDrains) {
  ResourcePool pool(4, /*refill_per_min=*/0.0);
  Rng rng(1);
  EXPECT_EQ(pool.free_pods(0), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(pool.Acquire(0, rng).from_scratch);
  }
  EXPECT_TRUE(pool.Acquire(0, rng).from_scratch);
  EXPECT_EQ(pool.scratch_count(), 1);
}

TEST(ResourcePoolTest, FullPoolAnswersLocally) {
  ResourcePool pool(100, 0.0);
  Rng rng(2);
  // First draws at high occupancy must be stage 1.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(pool.Acquire(0, rng).stage, 1);
  }
}

TEST(ResourcePoolTest, LowOccupancyExpandsSearch) {
  ResourcePool pool(100, 0.0);
  Rng rng(3);
  for (int i = 0; i < 95; ++i) {
    pool.Acquire(0, rng);
  }
  // Occupancy now 5%: stages must be 2 or 3.
  int deep = 0;
  for (int i = 0; i < 5; ++i) {
    const auto acq = pool.Acquire(0, rng);
    if (!acq.from_scratch) {
      EXPECT_GE(acq.stage, 2);
      ++deep;
    }
  }
  EXPECT_GT(deep, 0);
}

TEST(ResourcePoolTest, RefillRestoresCapacity) {
  ResourcePool pool(10, /*refill_per_min=*/2.0);
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    pool.Acquire(0, rng);
  }
  EXPECT_EQ(pool.free_pods(0), 0);
  EXPECT_EQ(pool.free_pods(5 * kMinute), 10);  // 2/min for 5 min, capped at target.
}

TEST(ResourcePoolTest, ReleaseRecyclesUpToCap) {
  ResourcePool pool(4, 0.0);
  Rng rng(5);
  pool.Acquire(0, rng);
  pool.Release(0);
  EXPECT_EQ(pool.free_pods(0), 4);
  for (int i = 0; i < 20; ++i) {
    pool.Release(0);  // Must not overfill unboundedly.
  }
  EXPECT_LE(pool.free_pods(0), 5);  // target + target/4 margin.
}

TEST(ResourcePoolTest, SetTargetAffectsScratch) {
  ResourcePool pool(0, 0.0);
  Rng rng(6);
  EXPECT_TRUE(pool.Acquire(0, rng).from_scratch);
  pool.SetTarget(8);
  // Refill credit accrues only via refill rate; with rate 0 the pool stays empty.
  EXPECT_TRUE(pool.Acquire(0, rng).from_scratch);
}

// --- Cold-start pipeline. ---

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : profile_(workload::DefaultRegionProfiles()[1]),
        pipeline_(profile_, workload::Calendar{}),
        pool_(100, 10.0),
        rng_(9) {}

  workload::RegionProfile profile_;
  const ColdStartModel pipeline_;
  ResourcePool pool_;
  RegionLoadState load_;
  Rng rng_;
};

TEST_F(PipelineTest, ComponentsArePositiveAndSumToTotal) {
  FunctionSpec spec;
  spec.dep_size_kb = 4096;
  for (int i = 0; i < 100; ++i) {
    const auto c = pipeline_.Compute(spec, pool_, load_, kHour, rng_);
    EXPECT_GT(c.pod_alloc, 0);
    EXPECT_GT(c.deploy_code, 0);
    EXPECT_GT(c.deploy_dep, 0);
    EXPECT_GT(c.scheduling, 0);
    EXPECT_EQ(c.total(), c.pod_alloc + c.deploy_code + c.deploy_dep + c.scheduling);
  }
}

TEST_F(PipelineTest, NoDependenciesMeansZeroDepTime) {
  FunctionSpec spec;
  spec.dep_size_kb = 0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pipeline_.Compute(spec, pool_, load_, 0, rng_).deploy_dep, 0);
  }
}

TEST_F(PipelineTest, CustomRuntimeAlwaysFromScratchAndSlow) {
  FunctionSpec spec;
  spec.runtime = Runtime::kCustom;
  double sum = 0;
  for (int i = 0; i < 200; ++i) {
    const auto c = pipeline_.Compute(spec, pool_, load_, 0, rng_);
    EXPECT_TRUE(c.from_scratch);
    sum += ToSeconds(c.pod_alloc);
  }
  EXPECT_GT(sum / 200, 5.0);  // Custom image pull ~10s median.
  EXPECT_EQ(pool_.free_pods(0), 100);  // Pool untouched.
}

TEST_F(PipelineTest, HttpPaysServerStart) {
  FunctionSpec py, http;
  py.runtime = Runtime::kPython3;
  http.runtime = Runtime::kHttp;
  double py_sum = 0, http_sum = 0;
  for (int i = 0; i < 200; ++i) {
    py_sum += ToSeconds(pipeline_.Compute(py, pool_, load_, 0, rng_).pod_alloc);
    pool_.Release(0);
    http_sum += ToSeconds(pipeline_.Compute(http, pool_, load_, 0, rng_).pod_alloc);
    pool_.Release(0);
  }
  EXPECT_GT(http_sum / 200, py_sum / 200 + 5.0);
}

TEST_F(PipelineTest, CodeTimeGrowsWithPackageSize) {
  FunctionSpec small, big;
  small.code_size_kb = 64;
  big.code_size_kb = 65536;
  double small_sum = 0, big_sum = 0;
  for (int i = 0; i < 200; ++i) {
    small_sum += ToSeconds(pipeline_.Compute(small, pool_, load_, 0, rng_).deploy_code);
    pool_.Release(0);
    big_sum += ToSeconds(pipeline_.Compute(big, pool_, load_, 0, rng_).deploy_code);
    pool_.Release(0);
  }
  EXPECT_GT(big_sum, small_sum * 3);
}

TEST_F(PipelineTest, CongestionWindowInflatesCoupledComponents) {
  FunctionSpec spec;
  RegionLoadState calm, congested;
  congested.cold_start_window = 100.0;
  double calm_sum = 0, hot_sum = 0;
  for (int i = 0; i < 300; ++i) {
    calm_sum += ToSeconds(pipeline_.Compute(spec, pool_, load_, 0, rng_).pod_alloc);
    pool_.Release(0);
    hot_sum += ToSeconds(pipeline_.Compute(spec, pool_, congested, 0, rng_).pod_alloc);
    pool_.Release(0);
  }
  // R2 couples allocation to the window (alloc_rate_coeff > 0).
  EXPECT_GT(hot_sum, calm_sum * 1.5);
}

TEST_F(PipelineTest, PostHolidayDependencyPenalty) {
  FunctionSpec spec;
  spec.dep_size_kb = 8192;
  double before = 0, after = 0;
  const SimTime day10 = 10 * kDay;
  const SimTime day24 = 24 * kDay;
  for (int i = 0; i < 400; ++i) {
    before += ToSeconds(pipeline_.Compute(spec, pool_, load_, day10, rng_).deploy_dep);
    pool_.Release(0);
    after += ToSeconds(pipeline_.Compute(spec, pool_, load_, day24, rng_).deploy_dep);
    pool_.Release(0);
  }
  EXPECT_GT(after, before * 1.3);
}

// --- Platform end-to-end on tiny populations. ---

struct TinyWorld {
  workload::Population pop;
  std::vector<workload::RegionProfile> profiles;
  workload::Calendar calendar;
  sim::Simulator sim;
  trace::TraceStore store;
  Platform::Options opts;
  std::unique_ptr<Platform> platform;

  // With `cells` > 1, function i lives in cell i % cells.
  explicit TinyWorld(std::vector<FunctionSpec> specs, int days = 1,
                     PlatformPolicy* policy = nullptr, uint32_t cells = 1) {
    Calendar();
    workload::Calendar::Options copts;
    copts.trace_days = days;
    calendar = workload::Calendar(copts);
    profiles = {workload::DefaultRegionProfiles()[0]};
    pop.functions = std::move(specs);
    pop.num_users = 1;
    pop.region_begin = {0, static_cast<uint32_t>(pop.functions.size())};
    opts.seed = 17;
    opts.cells_per_region = cells;
    if (cells > 1) {
      auto function_cells = std::make_shared<std::vector<uint32_t>>();
      for (uint32_t i = 0; i < pop.functions.size(); ++i) {
        function_cells->push_back(i % cells);
      }
      opts.function_cells = std::move(function_cells);
    }
    platform = std::make_unique<Platform>(pop, profiles, calendar, sim, store, opts,
                                          policy);
  }

  void Run(const std::vector<workload::ArrivalEvent>& arrivals) {
    platform->AttachArrivalStream(
        std::make_unique<workload::MaterializedArrivalStream>(arrivals, workload::NumDayChunks(calendar)));
    sim.RunUntil(calendar.horizon());
    platform->Finalize();
    store.Seal();
  }

 private:
  static void Calendar() {}
};

FunctionSpec BasicSpec() {
  FunctionSpec f;
  f.id = 0;
  f.user = 0;
  f.region = 0;
  f.runtime = Runtime::kPython3;
  f.primary_trigger = Trigger::kApigSync;
  f.exec_median_us = 10e3;
  f.exec_sigma = 0.01;  // Nearly deterministic exec for exact assertions.
  f.pod_concurrency = 1;
  f.code_size_kb = 100;
  f.dep_size_kb = 0;
  return f;
}

TEST(PlatformTest, SingleRequestColdStartsOnce) {
  TinyWorld world({BasicSpec()});
  world.Run({{kHour, 0}});
  EXPECT_EQ(world.store.cold_starts().size(), 1u);
  EXPECT_EQ(world.store.requests().size(), 1u);
  EXPECT_EQ(world.store.pods().size(), 1u);
  const auto& pod = world.store.pods()[0];
  EXPECT_EQ(pod.requests_served, 1u);
  // Death = last busy end + 60s keep-alive.
  EXPECT_EQ(pod.death_time, pod.last_busy_end + kMinute);
}

TEST(PlatformTest, RequestsWithinKeepAliveShareOnePod) {
  TinyWorld world({BasicSpec()});
  // Second request 30s after the first: inside keep-alive, warm start.
  world.Run({{kHour, 0}, {kHour + 30 * kSecond, 0}});
  EXPECT_EQ(world.store.cold_starts().size(), 1u);
  EXPECT_EQ(world.store.requests().size(), 2u);
  EXPECT_EQ(world.store.pods().size(), 1u);
  EXPECT_EQ(world.store.pods()[0].requests_served, 2u);
}

TEST(PlatformTest, GapBeyondKeepAliveColdStartsAgain) {
  TinyWorld world({BasicSpec()});
  world.Run({{kHour, 0}, {kHour + 10 * kMinute, 0}});
  EXPECT_EQ(world.store.cold_starts().size(), 2u);
  EXPECT_EQ(world.store.pods().size(), 2u);
}

TEST(PlatformTest, ConcurrencyOverflowSpawnsSecondPod) {
  FunctionSpec f = BasicSpec();
  f.exec_median_us = 30e6;  // 30s executions.
  f.pod_concurrency = 1;
  TinyWorld world({f});
  // Two arrivals 1s apart: the second cannot fit in the busy pod.
  world.Run({{kHour, 0}, {kHour + kSecond, 0}});
  EXPECT_EQ(world.store.cold_starts().size(), 2u);
  EXPECT_EQ(world.store.pods().size(), 2u);
}

TEST(PlatformTest, HigherConcurrencySharesPod) {
  FunctionSpec f = BasicSpec();
  f.exec_median_us = 30e6;
  f.pod_concurrency = 4;
  TinyWorld world({f});
  world.Run({{kHour, 0}, {kHour + kSecond, 0}, {kHour + 2 * kSecond, 0}});
  EXPECT_EQ(world.store.cold_starts().size(), 1u);
  EXPECT_EQ(world.store.pods().size(), 1u);
  EXPECT_EQ(world.store.pods()[0].requests_served, 3u);
}

// --- Slots free by end time; a request is whole when it is bound. ---

// The end (µs) of a request record.
SimTime EndOf(const trace::RequestRecord& r) { return r.timestamp + r.execution_time_us; }

TEST(PlatformTest, SlotFreesAtExactlyItsRequestsEnd) {
  // The same first arrival draws the same request in every run, so a
  // one-arrival run tells where its end falls.
  const SimTime end = [] {
    TinyWorld world({BasicSpec()});
    world.Run({{kHour, 0}});
    return EndOf(world.store.requests().at(0));
  }();
  // An arrival at exactly that µs finds the concurrency-1 pod's slot free
  // and is served warm ...
  TinyWorld at_end({BasicSpec()});
  at_end.Run({{kHour, 0}, {end, 0}});
  EXPECT_EQ(at_end.store.cold_starts().size(), 1u);
  ASSERT_EQ(at_end.store.requests().size(), 2u);
  EXPECT_EQ(at_end.store.requests()[1].timestamp, end);
  ASSERT_EQ(at_end.store.pods().size(), 1u);
  EXPECT_EQ(at_end.store.pods()[0].requests_served, 2u);
  // ... one µs earlier the slot is still held, so it needs a second pod.
  TinyWorld before_end({BasicSpec()});
  before_end.Run({{kHour, 0}, {end - 1, 0}});
  EXPECT_EQ(before_end.store.cold_starts().size(), 2u);
}

TEST(PlatformTest, FullPodTakesAnArrivalAtItsEarliestEnd) {
  FunctionSpec f = BasicSpec();
  f.exec_median_us = 30e6;  // Every request outlasts the four arrivals.
  f.pod_concurrency = 4;
  const std::vector<workload::ArrivalEvent> four = {
      {kHour, 0}, {kHour + kSecond, 0}, {kHour + 2 * kSecond, 0}, {kHour + 3 * kSecond, 0}};
  const SimTime earliest_end = [&] {
    TinyWorld world({f});
    world.Run(four);
    EXPECT_EQ(world.store.pods().size(), 1u);
    SimTime earliest = kNoBoundEnd;
    for (const auto& r : world.store.requests()) {
      earliest = std::min(earliest, EndOf(r));
    }
    return earliest;
  }();
  ASSERT_GT(earliest_end, kHour + 3 * kSecond);
  const auto fifth_at = [&](SimTime t) {
    TinyWorld world({f});
    std::vector<workload::ArrivalEvent> arrivals = four;
    arrivals.push_back({t, 0});
    world.Run(arrivals);
    return world.store.cold_starts().size();
  };
  // All four slots are held until the earliest end: a fifth arrival just
  // before it cold-starts a second pod; one at it reuses the first.
  EXPECT_EQ(fifth_at(earliest_end - 1), 2u);
  EXPECT_EQ(fifth_at(earliest_end), 1u);
}

TEST(PlatformTest, RequestRunningPastTheHorizonIsRecordedOnce) {
  FunctionSpec f = BasicSpec();
  f.exec_median_us = 30e6;
  TinyWorld world({f});
  const SimTime horizon = world.calendar.horizon();
  world.Run({{horizon - kSecond, 0}});
  // Bound before the horizon, so recorded, though it ends after it.
  ASSERT_EQ(world.store.requests().size(), 1u);
  const SimTime end = EndOf(world.store.requests()[0]);
  EXPECT_GT(end, horizon);
  // Its pod is censored no earlier than its end.
  ASSERT_EQ(world.store.pods().size(), 1u);
  const auto& pod = world.store.pods()[0];
  EXPECT_EQ(pod.requests_served, 1u);
  EXPECT_EQ(pod.last_busy_end, end);
  EXPECT_GE(pod.death_time, end);
}

TEST(PlatformTest, ColdStartComponentsSumToTotal) {
  TinyWorld world({BasicSpec()});
  world.Run({{kHour, 0}});
  const auto& c = world.store.cold_starts()[0];
  EXPECT_EQ(c.cold_start_us,
            c.pod_alloc_us + c.deploy_code_us + c.deploy_dep_us + c.scheduling_us);
}

TEST(PlatformTest, RecordsShareConsistentIds) {
  TinyWorld world({BasicSpec()});
  world.Run({{kHour, 0}});
  const auto& c = world.store.cold_starts()[0];
  const auto& r = world.store.requests()[0];
  const auto& p = world.store.pods()[0];
  EXPECT_EQ(c.pod_id, r.pod_id);
  EXPECT_EQ(c.pod_id, p.pod_id);
  EXPECT_EQ(c.function_id, 0u);
  // Request executes only after the pod is ready.
  EXPECT_GE(r.timestamp, c.timestamp + c.cold_start_us);
  EXPECT_EQ(p.ready_time, c.timestamp + c.cold_start_us);
}

TEST(PlatformTest, WorkflowChildInvokedAfterParent) {
  FunctionSpec parent = BasicSpec();
  FunctionSpec child = BasicSpec();
  child.id = 1;
  child.kind = ArrivalKind::kWorkflowChild;
  child.primary_trigger = Trigger::kWorkflowSync;
  parent.children.push_back({1, 1.0});
  TinyWorld world({parent, child});
  world.Run({{kHour, 0}});
  ASSERT_EQ(world.store.requests().size(), 2u);
  EXPECT_EQ(world.store.cold_starts().size(), 2u);
  // The child executes strictly after the parent's completion.
  const auto& reqs = world.store.requests();
  EXPECT_EQ(reqs[0].function_id, 0u);
  EXPECT_EQ(reqs[1].function_id, 1u);
  EXPECT_GT(reqs[1].timestamp, reqs[0].timestamp);
}

TEST(PlatformTest, ZeroProbabilityEdgeNeverFires) {
  FunctionSpec parent = BasicSpec();
  FunctionSpec child = BasicSpec();
  child.id = 1;
  child.kind = ArrivalKind::kWorkflowChild;
  parent.children.push_back({1, 0.0});
  TinyWorld world({parent, child});
  world.Run({{kHour, 0}});
  EXPECT_EQ(world.store.requests().size(), 1u);
}

TEST(PlatformTest, PodsAliveAtHorizonAreCensored) {
  FunctionSpec f = BasicSpec();
  TinyWorld world({f});
  // Arrival 20s before the horizon: pod would live past it.
  const SimTime horizon = kDay;
  world.Run({{horizon - 20 * kSecond, 0}});
  ASSERT_EQ(world.store.pods().size(), 1u);
  EXPECT_EQ(world.store.pods()[0].death_time, horizon);
}

TEST(PlatformTest, PrewarmedPodAbsorbsColdStart) {
  struct PrewarmOnce : PlatformPolicy {
    void OnAttach(Platform& p) override {
      // Prewarm function 0 at t=30min, long before the arrival at t=60min.
      p.SpawnPrewarmedPodAt(30 * kMinute, 0, 0, kHour);
    }
  } policy;
  TinyWorld world({BasicSpec()}, 1, &policy);
  world.Run({{kHour, 0}});
  // No user-visible cold start; one pod total (the prewarmed one).
  EXPECT_EQ(world.store.cold_starts().size(), 0u);
  EXPECT_EQ(world.store.pods().size(), 1u);
  EXPECT_EQ(world.store.pods()[0].requests_served, 1u);
  EXPECT_EQ(world.platform->prewarm_spawns(0), 1);
}

TEST(PlatformTest, SynchronousTriggersNeverDelayed) {
  struct DelayEverything : PlatformPolicy {
    SimDuration AdmissionDelay(const FunctionSpec&, SimTime,
                               const RegionLoadState&) override {
      ++asked;
      return kMinute;
    }
    int asked = 0;
  } policy;
  FunctionSpec f = BasicSpec();
  f.primary_trigger = Trigger::kApigSync;  // Synchronous.
  TinyWorld world({f}, 1, &policy);
  world.Run({{kHour, 0}});
  EXPECT_EQ(policy.asked, 0);
  EXPECT_EQ(world.platform->delayed_allocations(0), 0);
}

TEST(PlatformTest, AsyncTriggersCanBeDelayed) {
  struct DelayOnce : PlatformPolicy {
    SimDuration AdmissionDelay(const FunctionSpec&, SimTime,
                               const RegionLoadState&) override {
      return 5 * kMinute;
    }
  } policy;
  FunctionSpec f = BasicSpec();
  f.primary_trigger = Trigger::kObs;  // Asynchronous.
  TinyWorld world({f}, 1, &policy);
  world.Run({{kHour, 0}});
  EXPECT_EQ(world.platform->delayed_allocations(0), 1);
  ASSERT_EQ(world.store.requests().size(), 1u);
  EXPECT_GE(world.store.requests()[0].timestamp, kHour + 5 * kMinute);
}

TEST(PlatformTest, DynamicKeepAliveHookRespected) {
  struct ShortKeepAlive : PlatformPolicy {
    SimDuration KeepAliveFor(const FunctionSpec&, SimTime) override {
      return 5 * kSecond;
    }
  } policy;
  TinyWorld world({BasicSpec()}, 1, &policy);
  world.Run({{kHour, 0}});
  ASSERT_EQ(world.store.pods().size(), 1u);
  const auto& pod = world.store.pods()[0];
  EXPECT_EQ(pod.death_time, pod.last_busy_end + 5 * kSecond);
}

// --- The queue holds only events that must fire. ---

TEST(PlatformTest, QueueHoldsOneKeepAlivePerAlivePodAfterManyRearms) {
  // Every bound request that ends last on its pod moves the pod's one
  // keep-alive; none leaves a dead key behind in the queue, and cold starts
  // queue nothing for their ready time. Function 0 takes a request a second
  // on one pod; function 1's 30 s requests, one every 10 s, keep several pods.
  FunctionSpec quick = BasicSpec();
  FunctionSpec slow = BasicSpec();
  slow.id = 1;
  slow.exec_median_us = 30e6;
  TinyWorld world({quick, slow});
  std::vector<workload::ArrivalEvent> arrivals;
  for (int i = 0; i < 300; ++i) {
    arrivals.push_back({kHour + i * kSecond, 0});
    if (i % 10 == 0) {
      arrivals.push_back({kHour + i * kSecond, 1});
    }
  }
  world.platform->AttachArrivalStream(std::make_unique<workload::MaterializedArrivalStream>(
      arrivals, workload::NumDayChunks(world.calendar)));
  for (const SimTime at : {kHour + 95 * kSecond, kHour + 250 * kSecond + 1}) {
    world.sim.RunUntil(at);
    // The day start fired at 0: only keep-alives are left.
    const int alive = world.platform->alive_pod_count(0) + world.platform->alive_pod_count(1);
    EXPECT_GE(world.platform->alive_pod_count(1), 2);
    EXPECT_EQ(world.sim.pending_events(), static_cast<size_t>(alive));
  }
  world.sim.RunUntil(world.calendar.horizon());
  world.platform->Finalize();
  world.store.Seal();
  // Function 0's one pod took every request, re-arming 299 times.
  int quick_pods = 0;
  for (const auto& pod : world.store.pods()) {
    if (pod.function_id == 0) {
      ++quick_pods;
      EXPECT_EQ(pod.requests_served, 300u);
    }
  }
  EXPECT_EQ(quick_pods, 1);
  EXPECT_EQ(world.sim.pending_events(), 0u);
}

TEST(PlatformTest, ShortenedKeepAliveMovesEarlier) {
  // The policy grants the first request ten minutes and the second five
  // seconds: the re-key moves the pod's death earlier, not later.
  struct Shrinking : PlatformPolicy {
    SimDuration KeepAliveFor(const FunctionSpec&, SimTime) override {
      return calls++ == 0 ? 10 * kMinute : 5 * kSecond;
    }
    int calls = 0;
  } policy;
  TinyWorld world({BasicSpec()}, 1, &policy);
  world.Run({{kHour, 0}, {kHour + kSecond, 0}});
  ASSERT_EQ(world.store.pods().size(), 1u);
  const auto& pod = world.store.pods()[0];
  EXPECT_EQ(pod.requests_served, 2u);
  EXPECT_EQ(pod.death_time, pod.last_busy_end + 5 * kSecond);
}

// Records the in-flight cold-start count each admission decision reads.
struct LoadReader : PlatformPolicy {
  SimDuration AdmissionDelay(const FunctionSpec&, SimTime now,
                             const RegionLoadState& load) override {
    reads.emplace_back(now, load.active_cold_starts);
    return 0;
  }
  std::vector<std::pair<SimTime, int>> reads;
};

TEST(PlatformTest, ReadAtAReadyMicrosecondSeesTheDecrementIffItsSeqIsLower) {
  // Function 0 cold-starts at `start`; function 1, asynchronous, arrives at
  // exactly the µs that cold start is ready and reads the load. A day's
  // arrivals take their seqs when the day starts, so the ready key (reserved
  // by the cold start) orders after an arrival of the same day and before one
  // of the next day. The read sees the cold start in flight iff its key is
  // the later one.
  FunctionSpec sync = BasicSpec();
  FunctionSpec async = BasicSpec();
  async.id = 1;
  async.primary_trigger = Trigger::kObs;
  const auto ready_after = [&](SimTime start) {
    LoadReader policy;
    TinyWorld world({sync, async}, 2, &policy);
    world.Run({{start, 0}});
    const trace::ColdStartRecord& cs = world.store.cold_starts().at(0);
    return cs.timestamp + static_cast<SimTime>(cs.cold_start_us);
  };
  const auto read_at_ready = [&](SimTime start) {
    const SimTime ready = ready_after(start);
    LoadReader policy;
    TinyWorld world({sync, async}, 2, &policy);
    world.Run({{start, 0}, {ready, 1}});
    EXPECT_EQ(world.store.cold_starts().size(), 2u);
    EXPECT_EQ(world.store.cold_starts().at(0).timestamp, start);
    EXPECT_EQ(policy.reads.size(), 1u);
    EXPECT_EQ(policy.reads.at(0).first, ready);
    return std::pair(ready / kDay, policy.reads.at(0).second);
  };
  // Same day: the ready seq is higher, so the cold start is still in flight.
  EXPECT_EQ(read_at_ready(kHour), std::pair(int64_t{0}, 1));
  // Ready on the next day: the ready seq is lower, so its load is gone.
  EXPECT_EQ(read_at_ready(kDay - kMillisecond), std::pair(int64_t{1}, 0));
}

TEST(PlatformTest, CrossRegionRoutingExecutesElsewhere) {
  struct RouteToR2 : PlatformPolicy {
    trace::RegionId RouteColdStart(const FunctionSpec&, SimTime) override { return 1; }
  } policy;
  // Two regions needed.
  workload::Calendar::Options copts;
  copts.trace_days = 1;
  const workload::Calendar cal(copts);
  auto profiles = std::vector<workload::RegionProfile>{
      workload::DefaultRegionProfiles()[0], workload::DefaultRegionProfiles()[1]};
  workload::Population pop;
  pop.functions = {BasicSpec()};
  pop.num_users = 1;
  pop.region_begin = {0, 1, 1};
  sim::Simulator sim;
  trace::TraceStore store;
  Platform::Options opts;
  opts.seed = 21;
  Platform platform(pop, profiles, cal, sim, store, opts, &policy);
  platform.AttachArrivalStream(std::make_unique<workload::MaterializedArrivalStream>(
      std::vector<workload::ArrivalEvent>{{kHour, 0}}, workload::NumDayChunks(cal)));
  sim.RunUntil(cal.horizon());
  platform.Finalize();
  store.Seal();
  ASSERT_EQ(store.cold_starts().size(), 1u);
  EXPECT_EQ(store.cold_starts()[0].region, 1);  // Executed in R2.
  EXPECT_EQ(platform.cold_starts(1), 1);
  EXPECT_EQ(platform.cold_starts(0), 0);
}

TEST(PlatformTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    FunctionSpec f = BasicSpec();
    f.exec_sigma = 0.8;
    TinyWorld world({f});
    std::vector<workload::ArrivalEvent> arrivals;
    for (int i = 0; i < 50; ++i) {
      arrivals.push_back({kHour + i * 40 * kSecond, 0});
    }
    world.Run(arrivals);
    return std::pair{world.store.cold_starts().size(),
                     world.store.pods()[0].cold_start_us};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(PlatformTest, ArrivalAtTimeZeroHandled) {
  // Regression: the day-batch starter wakes at the day boundary (t=0 for day 0),
  // so an arrival at exactly t=0 must still be opened and delivered by the
  // cursor rather than lost to a starter scheduled in its past.
  TinyWorld world({BasicSpec()});
  world.Run({{0, 0}, {kSecond, 0}});
  EXPECT_EQ(world.store.requests().size(), 2u);
  EXPECT_EQ(world.store.cold_starts().size(), 1u);
  EXPECT_EQ(world.store.cold_starts()[0].timestamp, 0);
}

TEST(PlatformTest, CountersBitIdenticalAcrossRuns) {
  // Same seed => bit-identical aggregate counters, request stream, and event
  // count across two full runs (burstier workload than DeterministicAcrossRuns:
  // concurrency overflow, keep-alive expiry, and workflow fan-out all engage).
  auto run_once = [] {
    FunctionSpec parent = BasicSpec();
    parent.exec_sigma = 0.8;
    parent.exec_median_us = 5e6;
    parent.pod_concurrency = 2;
    FunctionSpec child = BasicSpec();
    child.id = 1;
    child.kind = ArrivalKind::kWorkflowChild;
    child.primary_trigger = Trigger::kWorkflowSync;
    child.exec_sigma = 0.5;
    parent.children.push_back({1, 0.5});
    TinyWorld world({parent, child});
    std::vector<workload::ArrivalEvent> arrivals;
    for (int i = 0; i < 200; ++i) {
      arrivals.push_back({kHour + i * 7 * kSecond, 0});
    }
    world.Run(arrivals);
    return std::tuple{world.platform->total_cold_starts(),
                      world.platform->pods_created(),
                      world.sim.events_processed(),
                      world.store.requests().size(),
                      world.store.pods().back().death_time};
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Checkpoint round trip. ---

// Leaves one pending event of every kind across the first day boundary:
// asynchronous arrivals wait 5 minutes (an invoke), and function 1's arrival
// arms a prewarm of function 3 an hour later.
struct EveryKindPolicy : PlatformPolicy {
  void OnAttach(Platform& p) override { platform = &p; }
  SimDuration AdmissionDelay(const FunctionSpec&, SimTime,
                             const RegionLoadState&) override {
    return 5 * kMinute;
  }
  void OnArrival(const FunctionSpec& spec, SimTime now) override {
    if (spec.id == 1) {
      platform->SpawnPrewarmedPodAt(now + kHour, 3, 0, kMinute);
    }
  }
  Platform* platform = nullptr;
};

std::vector<std::pair<trace::PodId, SimTime>> PodDeaths(const trace::TraceStore& store) {
  std::vector<std::pair<trace::PodId, SimTime>> deaths;
  for (const auto& pod : store.pods()) {
    deaths.emplace_back(pod.pod_id, pod.death_time);
  }
  return deaths;
}

// Every stats accessor of region 0 (the only region), in one comparable value.
std::vector<int64_t> RegionStats(const Platform& p) {
  return {p.cold_starts(0),          p.cold_start_latency_sum_us(0),
          p.scratch_allocations(0),  p.prewarm_spawns(0),
          p.delayed_allocations(0),  p.active_cold_starts(0),
          p.total_cold_starts(),     static_cast<int64_t>(p.pods_created())};
}

// Parametrized by cells_per_region: at 2 the five functions alternate between
// the cells, so both cells hold pending state at the boundary.
class PlatformCheckpointTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PlatformCheckpointTest, SaveRestoreSaveByteIdenticalWithEveryEventKindPending) {
  std::vector<FunctionSpec> specs(5, BasicSpec());
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].id = static_cast<trace::FunctionId>(i);
  }
  specs[0].exec_median_us = 30e6;            // Running across the boundary.
  specs[2].primary_trigger = Trigger::kObs;  // Asynchronous: delayed.
  const std::vector<workload::ArrivalEvent> arrivals = {
      {kDay - kMinute, 2},            // Invoke pending until kDay + 4 min.
      {kDay - 30 * kSecond, 1},       // Keep-alive pending; arms the prewarm.
      {kDay - 10 * kSecond, 0},       // Its request still runs.
      {kDay - kMillisecond, 4}};      // Cold start in flight; ready later.
  EveryKindPolicy policy;
  TinyWorld world(specs, /*days=*/2, &policy, /*cells=*/GetParam());
  const auto stream = [&] {
    return std::make_unique<workload::MaterializedArrivalStream>(
        arrivals, workload::NumDayChunks(world.calendar));
  };
  world.platform->AttachArrivalStream(stream());
  world.sim.RunUntil(kDay - 1);
  ByteWriter saved;
  world.platform->SaveCheckpointState(saved);

  sim::Simulator sim;
  sim.RestoreClock(world.sim.now(), world.sim.next_seq(), world.sim.events_processed());
  trace::TraceStore store;
  EveryKindPolicy restored_policy;
  Platform::Options opts = world.opts;
  opts.resuming = true;
  Platform restored(world.pop, world.profiles, world.calendar, sim, store, opts,
                    &restored_policy);
  ByteReader r(saved.data());
  restored.RestoreCheckpointState(r, stream());
  EXPECT_TRUE(r.AtEnd());
  ByteWriter again;
  restored.SaveCheckpointState(again);
  EXPECT_EQ(again.data(), saved.data());

  // Every kind was pending: each one's effect lands after the boundary.
  EXPECT_EQ(restored.active_cold_starts(0), 1);
  EXPECT_EQ(restored.delayed_allocations(0), 1);
  EXPECT_EQ(restored.prewarm_spawns(0), 0);
  sim.RunUntil(world.calendar.horizon());
  world.sim.RunUntil(world.calendar.horizon());
  EXPECT_EQ(sim.events_processed(), world.sim.events_processed());
  EXPECT_EQ(restored.active_cold_starts(0), 0);
  EXPECT_EQ(restored.prewarm_spawns(0), 1);
  restored.Finalize();
  world.platform->Finalize();
  store.Seal();
  world.store.Seal();
  // A request is recorded when it is bound: those of functions 0, 1 and 4
  // were bound before the boundary (0's and 4's still running across it), so
  // the restored run records only function 2's delayed one. Every pod dies
  // after the boundary, function 1's by keep-alive well before the horizon.
  EXPECT_EQ(store.requests().size(), 1u);
  EXPECT_EQ(world.store.requests().size(), 4u);
  ASSERT_EQ(store.pods().size(), 5u);
  EXPECT_EQ(PodDeaths(store), PodDeaths(world.store));
  EXPECT_LT(store.pods()[1].death_time, world.calendar.horizon());
  EXPECT_EQ(RegionStats(restored), RegionStats(*world.platform));
}

INSTANTIATE_TEST_SUITE_P(Cells, PlatformCheckpointTest, ::testing::Values(1u, 2u));

TEST(PlatformResumeTest, RequestsRunningAcrossTheCutResumeBitIdentical) {
  // Stopped at the first day boundary, some requests still hold slots (OBS
  // batch jobs run for tens of seconds); the checkpoint carries their ends.
  core::ScenarioConfig config;
  config.days = 3;
  config.scale = 0.05;
  const core::Experiment experiment(config);
  const std::string dir =
      testing_support::TempPath("coldstart_platform_resume_test").string();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const core::ExperimentResult plain = experiment.Run(nullptr, threads);
    const auto running_at_cut =
        std::count_if(plain.store.requests().begin(), plain.store.requests().end(),
                      [](const trace::RequestRecord& r) {
                        return r.timestamp < kDay && EndOf(r) > kDay;
                      });
    EXPECT_GT(running_at_cut, 0);

    std::filesystem::remove_all(dir);
    std::atomic<bool> stop{false};
    core::CheckpointPolicy ckpt;
    ckpt.dir = dir;
    ckpt.stop = &stop;
    ckpt.on_checkpoint = [&stop](int64_t day, uint32_t) {
      if (day >= 1) {
        stop.store(true);
      }
    };
    ASSERT_GE(experiment.Run(nullptr, threads, &ckpt).interrupted_at_day, 1);
    const core::ExperimentResult resumed = experiment.ResumeFrom(dir, nullptr, threads);
    EXPECT_EQ(resumed.interrupted_at_day, -1);
    EXPECT_EQ(trace::Digest(resumed.store), trace::Digest(plain.store));
    EXPECT_EQ(resumed.visible_cold_starts, plain.visible_cold_starts);
    EXPECT_EQ(resumed.cold_start_latency_sum_us, plain.cold_start_latency_sum_us);
  }
  std::filesystem::remove_all(dir);
}

// --- Platform-owned events: day starts and the minute tick. ---

// Runs a one-function platform for `days` days with no arrivals and returns
// the simulator's event count. With `resume`, the run is saved at the day-1
// boundary and finished on a restored platform, whose table must hold every
// pending day start and tick.
uint64_t IdleRunEvents(int days, bool with_policy, bool resume) {
  PlatformPolicy policy;  // Every hook at its default: it only adds the tick.
  TinyWorld world({BasicSpec()}, days, with_policy ? &policy : nullptr);
  const auto stream = [&world] {
    return std::make_unique<workload::MaterializedArrivalStream>(
        std::vector<workload::ArrivalEvent>{}, workload::NumDayChunks(world.calendar));
  };
  world.platform->AttachArrivalStream(stream());
  if (!resume) {
    world.sim.RunUntil(world.calendar.horizon());
    return world.sim.events_processed();
  }
  world.sim.RunUntil(kDay - 1);
  ByteWriter saved;
  world.platform->SaveCheckpointState(saved);

  sim::Simulator sim;
  sim.RestoreClock(world.sim.now(), world.sim.next_seq(), world.sim.events_processed());
  trace::TraceStore store;
  PlatformPolicy restored_policy;
  Platform::Options opts;
  opts.seed = 17;
  opts.resuming = true;
  Platform restored(world.pop, world.profiles, world.calendar, sim, store, opts,
                    with_policy ? &restored_policy : nullptr);
  ByteReader r(saved.data());
  restored.RestoreCheckpointState(r, stream());
  EXPECT_TRUE(r.AtEnd());
  // The later days' starts, plus the day-1 tick when there is a policy.
  EXPECT_EQ(sim.pending_events(), static_cast<size_t>(days - 1 + (with_policy ? 1 : 0)));
  sim.RunUntil(world.calendar.horizon());
  return sim.events_processed();
}

TEST(PlatformEventTest, EmptyStreamProcessesOneDayStartPerDay) {
  for (const bool resume : {false, true}) {
    EXPECT_EQ(IdleRunEvents(3, /*with_policy=*/false, resume), 3u) << "resume=" << resume;
  }
}

TEST(PlatformEventTest, PolicyAddsOneTickPerMinute) {
  for (const bool resume : {false, true}) {
    EXPECT_EQ(IdleRunEvents(3, /*with_policy=*/true, resume),
              3u + static_cast<uint64_t>(3 * kDay / kMinute))
        << "resume=" << resume;
  }
}

// --- Pod slab. ---

TEST(PodSlabTest, AllocateResolveFreeCycle) {
  Slab<Pod> slab;
  auto [pod, handle] = slab.Allocate();
  ASSERT_NE(pod, nullptr);
  pod->id = 42;
  EXPECT_EQ(slab.Resolve(handle), pod);
  EXPECT_EQ(slab.alive_count(), 1u);
  slab.Free(handle);
  EXPECT_EQ(slab.alive_count(), 0u);
  EXPECT_EQ(slab.Resolve(handle), nullptr);  // Stale handle detected.
}

TEST(PodSlabTest, RecycledSlotInvalidatesOldHandle) {
  Slab<Pod> slab;
  auto [pod1, h1] = slab.Allocate();
  pod1->id = 1;
  slab.Free(h1);
  auto [pod2, h2] = slab.Allocate();  // LIFO freelist: same slot, new generation.
  EXPECT_EQ(pod1, pod2);
  EXPECT_EQ(h1.index, h2.index);
  EXPECT_NE(h1.gen, h2.gen);
  EXPECT_EQ(slab.Resolve(h1), nullptr);
  EXPECT_EQ(slab.Resolve(h2), pod2);
  EXPECT_EQ(pod2->id, 0u);  // Slot is value-reset on reuse.
}

TEST(PodSlabTest, PointersStableAcrossGrowth) {
  Slab<Pod> slab;
  std::vector<std::pair<Pod*, SlabHandle>> all;
  for (int i = 0; i < 5000; ++i) {
    all.push_back(slab.Allocate());
    all.back().first->id = static_cast<trace::PodId>(i);
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(slab.Resolve(all[static_cast<size_t>(i)].second),
              all[static_cast<size_t>(i)].first);
    EXPECT_EQ(all[static_cast<size_t>(i)].first->id,
              static_cast<trace::PodId>(i));
  }
}

TEST(PodSlabTest, ForEachAliveVisitsInIndexOrder) {
  Slab<Pod> slab;
  std::vector<SlabHandle> handles;
  for (int i = 0; i < 10; ++i) {
    auto [pod, h] = slab.Allocate();
    pod->id = static_cast<trace::PodId>(i);
    handles.push_back(h);
  }
  slab.Free(handles[3]);
  slab.Free(handles[7]);
  std::vector<trace::PodId> seen;
  slab.ForEachAlive([&seen](Pod& pod) { seen.push_back(pod.id); });
  EXPECT_EQ(seen, (std::vector<trace::PodId>{0, 1, 2, 4, 5, 6, 8, 9}));
}

TEST(PodSlabTest, SlotAccessorsRejectOutOfRangeIndex) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Slab<Pod> slab;
  slab.Allocate();
  const uint32_t past_end = static_cast<uint32_t>(slab.capacity());
  EXPECT_DEATH(slab.slot_value(past_end), "CHECK failed");
  EXPECT_DEATH(slab.slot_alive(past_end), "CHECK failed");
  EXPECT_DEATH(slab.slot_generation(past_end), "CHECK failed");
}

TEST(PodSlabTest, StructureLayoutRoundTripsAndRejectsBadFreeList) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A one-chunk slab whose slot 0 is alive; every other slot must be listed
  // free exactly once.
  Slab<Pod> grown;
  grown.Allocate();
  const uint32_t cap = static_cast<uint32_t>(grown.capacity());
  std::vector<uint32_t> free_list;
  for (uint32_t i = cap - 1; i >= 1; --i) {
    free_list.push_back(i);
  }
  // The structure's bytes: capacity, freelist, generations (all 0) and
  // liveness (slot 0 alive).
  const auto structure = [cap](const std::vector<uint32_t>& free) {
    ByteWriter w;
    w.U32(cap);
    w.U64(free.size());
    for (const uint32_t i : free) {
      w.U32(i);
    }
    for (uint32_t i = 0; i < cap; ++i) {
      w.U32(0);
    }
    for (uint32_t i = 0; i < cap; ++i) {
      w.U8(i == 0);
    }
    return w.Take();
  };
  ByteWriter saved;
  Slab<Pod>::StructureLayout(saved, std::as_const(grown));
  EXPECT_EQ(saved.data(), structure(free_list));
  const auto restore = [](const std::string& bytes) {
    Slab<Pod> slab;
    ByteReader r(bytes);
    Slab<Pod>::StructureLayout(r, slab);
    return slab.alive_count();
  };
  EXPECT_EQ(restore(structure(free_list)), 1u);

  auto with_last = [&free_list](uint32_t index) {
    std::vector<uint32_t> bad = free_list;
    bad.back() = index;
    return bad;
  };
  EXPECT_DEATH(restore(structure(with_last(cap))), "CHECK failed");  // Out of range.
  EXPECT_DEATH(restore(structure(with_last(0))), "CHECK failed");    // Alive.
  EXPECT_DEATH(restore(structure(with_last(2))), "CHECK failed");    // Duplicate.
}

}  // namespace
}  // namespace coldstart::platform
