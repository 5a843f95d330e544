// Tests for the trace layer: types, store, aggregation and CSV round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/aggregate.h"
#include "trace/csv.h"
#include "trace/trace_store.h"
#include "temp_dir.h"

namespace coldstart::trace {
namespace {

TEST(TypesTest, TriggerSynchronicity) {
  EXPECT_TRUE(IsSynchronous(Trigger::kApigSync));
  EXPECT_TRUE(IsSynchronous(Trigger::kWorkflowSync));
  EXPECT_TRUE(IsSynchronous(Trigger::kKafkaSync));
  EXPECT_FALSE(IsSynchronous(Trigger::kTimer));
  EXPECT_FALSE(IsSynchronous(Trigger::kObs));
  EXPECT_FALSE(IsSynchronous(Trigger::kLts));
}

TEST(TypesTest, TriggerGrouping) {
  EXPECT_EQ(GroupOf(Trigger::kApigSync), TriggerGroup::kApigS);
  EXPECT_EQ(GroupOf(Trigger::kObs), TriggerGroup::kObsA);
  EXPECT_EQ(GroupOf(Trigger::kTimer), TriggerGroup::kTimerA);
  EXPECT_EQ(GroupOf(Trigger::kWorkflowSync), TriggerGroup::kWorkflowS);
  EXPECT_EQ(GroupOf(Trigger::kCts), TriggerGroup::kOtherA);
  EXPECT_EQ(GroupOf(Trigger::kKafkaSync), TriggerGroup::kOtherS);
  EXPECT_EQ(GroupOf(Trigger::kUnknown), TriggerGroup::kUnknown);
}

TEST(TypesTest, PoolSizeClassBoundary) {
  // Small: at most 400 millicores AND at most 256 MB (§4.2).
  EXPECT_EQ(SizeClassOf(ResourceConfig::k300m128), PoolSizeClass::kSmall);
  EXPECT_EQ(SizeClassOf(ResourceConfig::k400m256), PoolSizeClass::kSmall);
  EXPECT_EQ(SizeClassOf(ResourceConfig::k600m512), PoolSizeClass::kLarge);
  EXPECT_EQ(SizeClassOf(ResourceConfig::k26000m32768), PoolSizeClass::kLarge);
}

TEST(TypesTest, ConfigGroups) {
  EXPECT_EQ(ConfigGroupOf(ResourceConfig::k300m128), ConfigGroup::k300m128);
  EXPECT_EQ(ConfigGroupOf(ResourceConfig::k2000m2048), ConfigGroup::kOther);
}

TEST(TypesTest, NamesAreStableAndDistinct) {
  EXPECT_STREQ(RuntimeName(Runtime::kPython3), "Python3");
  EXPECT_STREQ(TriggerName(Trigger::kObs), "OBS-A");
  EXPECT_EQ(RegionName(0), "R1");
  EXPECT_EQ(RegionName(4), "R5");
  EXPECT_STREQ(ResourceConfigName(ResourceConfig::k300m128), "300-128");
}

TEST(TypesTest, HashedIdIsStable) {
  EXPECT_EQ(HashedId(42), HashedId(42));
  EXPECT_NE(HashedId(42), HashedId(43));
  EXPECT_EQ(HashedId(1).size(), 16u);
}

FunctionRecord MakeFunction(FunctionId id, RegionId region,
                            Runtime rt = Runtime::kPython3,
                            Trigger trig = Trigger::kTimer,
                            ResourceConfig cfg = ResourceConfig::k300m128) {
  FunctionRecord f;
  f.function_id = id;
  f.user_id = id * 10;
  f.region = region;
  f.runtime = rt;
  f.primary_trigger = trig;
  f.trigger_mask = TriggerBit(trig);
  f.config = cfg;
  return f;
}

TEST(TraceStoreTest, SealSortsByTimestamp) {
  TraceStore store;
  store.AddFunction(MakeFunction(0, 0));
  RequestRecord r1, r2;
  r1.timestamp = 100;
  r2.timestamp = 50;
  store.AddRequest(r1);
  store.AddRequest(r2);
  store.Seal();
  EXPECT_EQ(store.requests()[0].timestamp, 50);
  EXPECT_EQ(store.requests()[1].timestamp, 100);
}

TEST(TraceStoreTest, FunctionIdsMustBeDense) {
  TraceStore store;
  store.AddFunction(MakeFunction(0, 0));
  store.AddFunction(MakeFunction(1, 1));
  EXPECT_EQ(store.functions().size(), 2u);
  EXPECT_DEATH(store.AddFunction(MakeFunction(5, 0)), "CHECK");
}

TraceStore MakeTinyStore() {
  TraceStore store;
  store.AddFunction(MakeFunction(0, 0, Runtime::kPython3, Trigger::kTimer));
  store.AddFunction(MakeFunction(1, 1, Runtime::kJava, Trigger::kApigSync,
                                 ResourceConfig::k1000m1024));
  RequestRecord r;
  r.timestamp = 30 * kSecond;
  r.request_id = 7;
  r.pod_id = 1;
  r.function_id = 0;
  r.user_id = 0;
  r.region = 0;
  r.cluster = 2;
  r.cpu_millicores = 250;
  r.execution_time_us = 50000;
  r.memory_kb = 2048;
  store.AddRequest(r);
  r.timestamp = 90 * kSecond;
  r.function_id = 1;
  r.region = 1;
  store.AddRequest(r);

  ColdStartRecord c;
  c.timestamp = 10 * kSecond;
  c.pod_id = 1;
  c.function_id = 0;
  c.region = 0;
  c.cluster = 2;
  c.pod_alloc_us = 1000;
  c.deploy_code_us = 2000;
  c.deploy_dep_us = 0;
  c.scheduling_us = 3000;
  c.cold_start_us = 6000;
  store.AddColdStart(c);

  PodLifetimeRecord p;
  p.pod_id = 1;
  p.function_id = 0;
  p.region = 0;
  p.cluster = 2;
  p.config = ResourceConfig::k300m128;
  p.cold_start_begin = 10 * kSecond;
  p.ready_time = 10 * kSecond + 6000;
  p.last_busy_end = 31 * kSecond;
  p.death_time = 91 * kSecond;
  p.cold_start_us = 6000;
  p.requests_served = 1;
  store.AddPodLifetime(p);

  store.set_horizon(2 * kMinute);
  store.Seal();
  return store;
}

TEST(AggregateTest, RequestCountSeries) {
  const TraceStore store = MakeTinyStore();
  const auto all = RequestCountSeries(store, -1, kMinute);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_DOUBLE_EQ(all[0], 1.0);
  EXPECT_DOUBLE_EQ(all[1], 1.0);
  const auto r1 = RequestCountSeries(store, 0, kMinute);
  EXPECT_DOUBLE_EQ(r1[0], 1.0);
  EXPECT_DOUBLE_EQ(r1[1], 0.0);
}

TEST(AggregateTest, MeanExecutionSeries) {
  const TraceStore store = MakeTinyStore();
  const auto exec = MeanExecutionTimeSeries(store, 0, kMinute);
  EXPECT_NEAR(exec[0], 0.05, 1e-9);
  EXPECT_DOUBLE_EQ(exec[1], 0.0);
}

TEST(AggregateTest, ColdStartComponentSeries) {
  const TraceStore store = MakeTinyStore();
  const auto s = ColdStartComponentSeries(store, 0, kMinute);
  EXPECT_DOUBLE_EQ(s.count[0], 1.0);
  EXPECT_NEAR(s.total[0], 0.006, 1e-9);
  EXPECT_NEAR(s.pod_alloc[0], 0.001, 1e-9);
  EXPECT_NEAR(s.scheduling[0], 0.003, 1e-9);
}

TEST(AggregateTest, RunningPodsSeriesCoversLifetime) {
  const TraceStore store = MakeTinyStore();
  const auto pods = RunningPodsSeries(store, 0, kMinute, 1,
                                      [](const PodLifetimeRecord&) { return 0; });
  // Pod alive 10s..91s: touches both minute buckets.
  EXPECT_DOUBLE_EQ(pods[0][0], 1.0);
  EXPECT_DOUBLE_EQ(pods[0][1], 1.0);
}

TEST(AggregateTest, PerFunctionCounts) {
  const TraceStore store = MakeTinyStore();
  const auto reqs = RequestsPerFunction(store);
  const auto cs = ColdStartsPerFunction(store);
  EXPECT_EQ(reqs[0], 1u);
  EXPECT_EQ(reqs[1], 1u);
  EXPECT_EQ(cs[0], 1u);
  EXPECT_EQ(cs[1], 0u);
}

TEST(AggregateTest, AllocatedCpuSeries) {
  const TraceStore store = MakeTinyStore();
  const auto cpu = AllocatedCpuCoreSeries(store, 0, kMinute);
  // 0.3 cores for 50s of the first minute = 0.25 core-minutes.
  EXPECT_NEAR(cpu[0], 0.3 * 50.0 / 60.0, 1e-6);
  EXPECT_NEAR(cpu[1], 0.3 * 31.0 / 60.0, 1e-6);
}

class RoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_support::TempPath("coldstart_trace_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(RoundTripTest, CsvPreservesRecords) {
  const TraceStore store = MakeTinyStore();
  const std::string base = (dir_ / "t").string();
  ASSERT_TRUE(WriteRequestsCsv(store, base + "_req.csv"));
  ASSERT_TRUE(WriteColdStartsCsv(store, base + "_cs.csv"));
  ASSERT_TRUE(WriteFunctionsCsv(store, base + "_fn.csv"));
  ASSERT_TRUE(WritePodsCsv(store, base + "_pod.csv"));

  TraceStore loaded;
  ASSERT_TRUE(ReadFunctionsCsv(base + "_fn.csv", loaded));
  ASSERT_TRUE(ReadRequestsCsv(base + "_req.csv", loaded));
  ASSERT_TRUE(ReadColdStartsCsv(base + "_cs.csv", loaded));
  ASSERT_TRUE(ReadPodsCsv(base + "_pod.csv", loaded));

  ASSERT_EQ(loaded.requests().size(), store.requests().size());
  EXPECT_EQ(loaded.requests()[0].timestamp, store.requests()[0].timestamp);
  EXPECT_EQ(loaded.requests()[0].cpu_millicores, store.requests()[0].cpu_millicores);
  EXPECT_EQ(loaded.requests()[0].memory_kb, store.requests()[0].memory_kb);
  ASSERT_EQ(loaded.cold_starts().size(), 1u);
  EXPECT_EQ(loaded.cold_starts()[0].scheduling_us, 3000u);
  ASSERT_EQ(loaded.functions().size(), 2u);
  EXPECT_EQ(loaded.functions()[1].runtime, Runtime::kJava);
  EXPECT_EQ(loaded.functions()[1].config, ResourceConfig::k1000m1024);
  ASSERT_EQ(loaded.pods().size(), 1u);
  EXPECT_EQ(loaded.pods()[0].death_time, 91 * kSecond);
}

TEST(TraceStoreMergeTest, AppendFromThenSealMatchesInterleavedInsertion) {
  // Two stores fed the same records in different groupings seal identically:
  // the canonical Seal order is a function of the record multiset only.
  auto request = [](SimTime t, uint64_t id, RegionId region) {
    RequestRecord r;
    r.timestamp = t;
    r.request_id = id;
    r.region = region;
    return r;
  };
  TraceStore merged;  // Region-grouped, out of time order across groups.
  merged.AddRequest(request(5, 1, 0));
  merged.AddRequest(request(9, 2, 0));
  TraceStore shard;
  shard.AddRequest(request(5, 3, 1));
  shard.AddRequest(request(7, 4, 1));
  shard.set_horizon(100);
  merged.AppendFrom(std::move(shard));
  merged.Seal();

  TraceStore serial;  // Same records, interleaved by time.
  serial.AddRequest(request(5, 3, 1));
  serial.AddRequest(request(5, 1, 0));
  serial.AddRequest(request(7, 4, 1));
  serial.AddRequest(request(9, 2, 0));
  serial.set_horizon(100);
  serial.Seal();

  EXPECT_EQ(merged.horizon(), serial.horizon());
  ASSERT_EQ(merged.requests().size(), serial.requests().size());
  for (size_t i = 0; i < merged.requests().size(); ++i) {
    EXPECT_EQ(merged.requests()[i].request_id, serial.requests()[i].request_id) << i;
  }
  // Ties sort region 0 before region 1 at t=5.
  EXPECT_EQ(merged.requests()[0].region, 0);
  EXPECT_EQ(merged.requests()[1].region, 1);
}

TEST(TraceStoreMergeTest, SealedOrderSurvivesRestoreRoundTrip) {
  // A cache hit restores a sealed store's tables and seals them again; the
  // already-canonical tables must come out unchanged, and tables restored out
  // of order must still be sorted.
  TraceStore sealed;
  for (uint64_t i = 0; i < 50; ++i) {
    const SimTime t = static_cast<SimTime>((i * 37) % 11);  // Out of order, with ties.
    const auto region = static_cast<RegionId>(i % 3);
    RequestRecord r;
    r.timestamp = t;
    r.request_id = i;
    r.region = region;
    sealed.AddRequest(r);
    ColdStartRecord c;
    c.timestamp = t;
    c.pod_id = i;
    c.region = region;
    sealed.AddColdStart(c);
    PodLifetimeRecord p;
    p.cold_start_begin = t;
    p.pod_id = i;
    p.region = region;
    sealed.AddPodLifetime(p);
  }
  sealed.AddFunction(MakeFunction(0, 0));
  sealed.set_horizon(kMinute);
  sealed.Seal();
  const uint64_t digest = Digest(sealed);

  for (const bool reverse : {false, true}) {
    std::vector<RequestRecord> requests = sealed.requests();
    std::vector<ColdStartRecord> cold_starts = sealed.cold_starts();
    std::vector<PodLifetimeRecord> pods = sealed.pods();
    if (reverse) {
      std::reverse(requests.begin(), requests.end());
      std::reverse(cold_starts.begin(), cold_starts.end());
      std::reverse(pods.begin(), pods.end());
    }
    TraceStore restored;
    restored.RestoreTables(std::move(requests), std::move(cold_starts),
                           sealed.functions(), std::move(pods), sealed.horizon());
    EXPECT_FALSE(restored.sealed());
    restored.Seal();
    EXPECT_EQ(Digest(restored), digest) << "reverse=" << reverse;
  }
}

// Builds all three event tables from `keys`, one row per key in the given
// order (region and id break ties, so every key order is total), seals, and
// compares each table byte for byte with std::sort under the canonical order.
void ExpectSealMatchesFullSort(const std::vector<SimTime>& keys, const char* shape) {
  std::vector<RequestRecord> requests;
  std::vector<ColdStartRecord> cold_starts;
  std::vector<PodLifetimeRecord> pods;
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto region = static_cast<RegionId>(i % 5);
    RequestRecord r;
    r.timestamp = keys[i];
    r.region = region;
    r.request_id = i;
    r.execution_time_us = static_cast<uint32_t>(i);
    requests.push_back(r);
    ColdStartRecord c;
    c.timestamp = keys[i];
    c.region = region;
    c.pod_id = i;
    c.cold_start_us = static_cast<uint32_t>(i);
    cold_starts.push_back(c);
    PodLifetimeRecord p;
    p.cold_start_begin = keys[i];
    p.region = region;
    p.pod_id = i;
    p.requests_served = static_cast<uint32_t>(i);
    pods.push_back(p);
  }
  TraceStore store;
  store.RestoreTables(requests, cold_starts, {}, pods, kMinute);
  store.Seal();

  std::sort(requests.begin(), requests.end(), [](const RequestRecord& a, const RequestRecord& b) {
    return std::tie(a.timestamp, a.region, a.request_id, a.pod_id) <
           std::tie(b.timestamp, b.region, b.request_id, b.pod_id);
  });
  std::sort(cold_starts.begin(), cold_starts.end(),
            [](const ColdStartRecord& a, const ColdStartRecord& b) {
              return std::tie(a.timestamp, a.region, a.pod_id) <
                     std::tie(b.timestamp, b.region, b.pod_id);
            });
  std::sort(pods.begin(), pods.end(), [](const PodLifetimeRecord& a, const PodLifetimeRecord& b) {
    return std::tie(a.cold_start_begin, a.region, a.pod_id) <
           std::tie(b.cold_start_begin, b.region, b.pod_id);
  });
  const auto same_bytes = [](const auto& got, const auto& want) {
    return got.size() == want.size() &&
           (want.empty() ||
            std::memcmp(got.data(), want.data(), want.size() * sizeof(want[0])) == 0);
  };
  EXPECT_TRUE(same_bytes(store.requests(), requests)) << shape << ": requests";
  EXPECT_TRUE(same_bytes(store.cold_starts(), cold_starts)) << shape << ": cold starts";
  EXPECT_TRUE(same_bytes(store.pods(), pods)) << shape << ": pods";
}

TEST(TraceStoreTest, SealWritesTheBytesOfAFullSort) {
  constexpr size_t kRows = 4000;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x](uint64_t bound) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % bound;
  };
  ExpectSealMatchesFullSort({}, "empty");
  ExpectSealMatchesFullSort({7}, "one row");
  std::vector<SimTime> sorted;
  for (size_t i = 0; i < kRows; ++i) {
    sorted.push_back(static_cast<SimTime>(i / 5));  // Region order breaks the ties.
  }
  ExpectSealMatchesFullSort(sorted, "sorted");
  ExpectSealMatchesFullSort({sorted.rbegin(), sorted.rend()}, "reversed");

  // Request-like: recorded in bind order, keyed by an execution start that is
  // never earlier, so 13% of rows run up to 127 places ahead. The first row
  // runs ahead of every other, so the merge puts one row last.
  std::vector<SimTime> ahead;
  for (size_t i = 0; i < kRows; ++i) {
    const SimTime bind = static_cast<SimTime>(i);
    ahead.push_back(next(100) < 13 ? bind + 1 + static_cast<SimTime>(next(127)) : bind);
  }
  ahead.front() = static_cast<SimTime>(2 * kRows);
  ExpectSealMatchesFullSort(ahead, "ahead of place");

  // Pod-like: recorded at death and keyed by birth; a third live long, so
  // their rows run behind. The last row was born first, so the merge puts one
  // row first.
  std::vector<std::pair<SimTime, SimTime>> deaths;  // (death, birth)
  for (size_t i = 0; i < kRows; ++i) {
    const SimTime birth = static_cast<SimTime>(i / 2) + 1;
    const SimTime life = next(100) < 34 ? 1 + static_cast<SimTime>(next(300)) : 0;
    deaths.emplace_back(birth + life, birth);
  }
  std::stable_sort(deaths.begin(), deaths.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<SimTime> behind;
  for (const auto& [death, birth] : deaths) {
    behind.push_back(birth);
  }
  behind.back() = 0;
  ExpectSealMatchesFullSort(behind, "behind place");

  // Sorted runs concatenated, as AppendFrom leaves shards. Two runs leave at
  // most half the rows off either chain (exactly half here), the widest side
  // list the merge takes; five leave about four fifths and take std::sort.
  for (const size_t runs : {size_t{2}, size_t{5}}) {
    std::vector<SimTime> concatenated;
    for (size_t run = 0; run < runs; ++run) {
      for (size_t i = 0; i < kRows / runs; ++i) {
        concatenated.push_back(static_cast<SimTime>(runs * i + (runs - 1 - run)));
      }
    }
    ExpectSealMatchesFullSort(concatenated, runs == 2 ? "two runs" : "five runs");
  }
}

TEST_F(RoundTripTest, MissingFileFails) {
  TraceStore loaded;
  CsvError error;
  EXPECT_FALSE(ReadRequestsCsv((dir_ / "missing.csv").string(), loaded, &error));
  EXPECT_EQ(error.line, 0);  // File-level failure, no line to blame.
}

// --- Malformed-input rejection: the replay path makes the parsers load-bearing,
// so every broken row must fail with the offending line number. ---

class CsvRejectionTest : public RoundTripTest {
 protected:
  std::string WriteCsv(const char* name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::FILE* f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fputs(content.c_str(), f);
    std::fclose(f);
    return path;
  }
  static constexpr const char* kRequestsHeader =
      "timestamp_us,pod_id,cluster,function,user,request_id,"
      "execution_time_us,cpu_millicores,memory_bytes\n";
};

TEST_F(CsvRejectionTest, TruncatedRowReportsLine) {
  const std::string path = WriteCsv(
      "truncated.csv", std::string(kRequestsHeader) +
                           "30000000,1,R1-c2,0,0,7,50000,250,2097152\n"
                           "90000000,1,R1-c2\n");
  TraceStore store;
  CsvError error;
  EXPECT_FALSE(ReadRequestsCsv(path, store, &error));
  EXPECT_EQ(error.line, 3);
  EXPECT_NE(error.message.find("truncated"), std::string::npos) << error.message;
  EXPECT_EQ(store.requests().size(), 1u);  // Rows before the break were parsed.
}

TEST_F(CsvRejectionTest, NonNumericFieldReportsLineAndField) {
  const std::string path = WriteCsv(
      "nonnumeric.csv", std::string(kRequestsHeader) +
                            "abc,1,R1-c2,0,0,7,50000,250,2097152\n");
  TraceStore store;
  CsvError error;
  EXPECT_FALSE(ReadRequestsCsv(path, store, &error));
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("timestamp_us"), std::string::npos) << error.message;
  EXPECT_NE(error.message.find("abc"), std::string::npos) << error.message;
}

TEST_F(CsvRejectionTest, OutOfRangeValuesRejected) {
  TraceStore store;
  CsvError error;
  // cpu_millicores overflows uint16.
  EXPECT_FALSE(ReadRequestsCsv(
      WriteCsv("cpu.csv", std::string(kRequestsHeader) +
                              "1,1,R1-c2,0,0,7,50000,70000,2097152\n"),
      store, &error));
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("cpu_millicores"), std::string::npos);
  // Region beyond R5 and cluster beyond c3.
  EXPECT_FALSE(ReadRequestsCsv(
      WriteCsv("region.csv", std::string(kRequestsHeader) +
                                 "1,1,R9-c2,0,0,7,50000,250,2097152\n"),
      store, &error));
  EXPECT_EQ(error.line, 2);
  EXPECT_FALSE(ReadRequestsCsv(
      WriteCsv("cluster.csv", std::string(kRequestsHeader) +
                                  "1,1,R1-c7,0,0,7,50000,250,2097152\n"),
      store, &error));
  EXPECT_EQ(error.line, 2);
  // Negative value in an unsigned column.
  EXPECT_FALSE(ReadRequestsCsv(
      WriteCsv("negative.csv", std::string(kRequestsHeader) +
                                   "1,-4,R1-c2,0,0,7,50000,250,2097152\n"),
      store, &error));
  EXPECT_EQ(error.line, 2);
}

TEST_F(CsvRejectionTest, FunctionIdValidatedAgainstLoadedTable) {
  // With a 2-entry function table loaded, a request naming function 99 is an
  // out-of-range id, not silently-accepted garbage.
  const TraceStore exported = MakeTinyStore();
  const std::string fn_path = (dir_ / "fn.csv").string();
  ASSERT_TRUE(WriteFunctionsCsv(exported, fn_path));
  TraceStore store;
  ASSERT_TRUE(ReadFunctionsCsv(fn_path, store));
  CsvError error;
  EXPECT_FALSE(ReadRequestsCsv(
      WriteCsv("badfn.csv", std::string(kRequestsHeader) +
                                "1,1,R1-c2,99,0,7,50000,250,2097152\n"),
      store, &error));
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("out of range"), std::string::npos) << error.message;
}

TEST_F(CsvRejectionTest, HashedIdExportIsNotReadable) {
  // Release-format files carry one-way hashed ids; the old reader silently
  // parsed them as zeros, the hardened reader rejects them.
  const TraceStore store = MakeTinyStore();
  const std::string path = (dir_ / "hashed.csv").string();
  CsvExportOptions opts;
  opts.hash_ids = true;
  ASSERT_TRUE(WriteRequestsCsv(store, path, opts));
  TraceStore loaded;
  CsvError error;
  EXPECT_FALSE(ReadRequestsCsv(path, loaded, &error));
  EXPECT_EQ(error.line, 2);
}

TEST_F(CsvRejectionTest, ColdStartAndPodReadersRejectBadRows) {
  TraceStore store;
  CsvError error;
  EXPECT_FALSE(ReadColdStartsCsv(
      WriteCsv("cs.csv",
               "timestamp_us,pod_id,cluster,function,user,cold_start_us,"
               "pod_alloc_us,deploy_code_us,deploy_dep_us,scheduling_us\n"
               "1,1,R1-c2,0,0,6000,1000,2000,0,xyz\n"),
      store, &error));
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("scheduling_us"), std::string::npos) << error.message;

  EXPECT_FALSE(ReadPodsCsv(
      WriteCsv("pods.csv",
               "pod_id,function,region,cluster,cpu_mem,cold_start_begin_us,ready_us,"
               "last_busy_end_us,death_us,cold_start_us,requests_served\n"
               "1,0,R1,2,no-such-config,1,2,3,4,100,1\n"),
      store, &error));
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("cpu_mem"), std::string::npos) << error.message;

  EXPECT_FALSE(ReadFunctionsCsv(
      WriteCsv("fn_sparse.csv",
               "function,user,region,runtime,trigger_type,trigger_mask,cpu_mem\n"
               "5,0,R1,Python3,TIMER-A,4,300-128\n"),
      store, &error));
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("dense"), std::string::npos) << error.message;
}

}  // namespace
}  // namespace coldstart::trace
