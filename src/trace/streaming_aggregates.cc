#include "trace/streaming_aggregates.h"

#include "common/check.h"
#include "trace/trace_store.h"

namespace coldstart::trace {

namespace {

// Histogram value ranges, in seconds. Fixed constants: every sink instance must
// share one bucket layout or shard merges could not add bucket counts.
constexpr double kColdStartMinS = 1e-3;
constexpr double kColdStartMaxS = 1e4;
constexpr double kRequestMinS = 1e-5;
constexpr double kRequestMaxS = 1e4;
constexpr double kPodLifetimeMinS = 1e-2;
constexpr double kPodLifetimeMaxS = 1e9;

constexpr double kMicrosToSeconds = 1e-6;

}  // namespace

void StreamCounters::MergeFrom(const StreamCounters& other) {
  requests += other.requests;
  cold_starts += other.cold_starts;
  pods += other.pods;
  cold_start_latency_sum_us += other.cold_start_latency_sum_us;
  execution_time_sum_us += other.execution_time_sum_us;
  pod_lifetime_sum_us += other.pod_lifetime_sum_us;
  pod_requests_served += other.pod_requests_served;
}

StreamingAggregates::RegionSlot::RegionSlot()
    : cold_start_hist(kColdStartMinS, kColdStartMaxS),
      request_hist(kRequestMinS, kRequestMaxS),
      pod_lifetime_hist(kPodLifetimeMinS, kPodLifetimeMaxS),
      group_cold_start_hists{
          LogHistogram(kColdStartMinS, kColdStartMaxS),
          LogHistogram(kColdStartMinS, kColdStartMaxS),
          LogHistogram(kColdStartMinS, kColdStartMaxS),
          LogHistogram(kColdStartMinS, kColdStartMaxS),
          LogHistogram(kColdStartMinS, kColdStartMaxS),
          LogHistogram(kColdStartMinS, kColdStartMaxS),
          LogHistogram(kColdStartMinS, kColdStartMaxS)} {
  static_assert(kNumTriggerGroups == 7, "group_cold_start_hists initializer count");
}

StreamingAggregates::RegionSlot& StreamingAggregates::Slot(RegionId region) {
  if (region >= regions_.size()) {
    regions_.resize(static_cast<size_t>(region) + 1);
  }
  return regions_[region];
}

const StreamingAggregates::RegionSlot& StreamingAggregates::SlotOrEmpty(
    RegionId region) const {
  static const RegionSlot kEmpty;
  return region < regions_.size() ? regions_[region] : kEmpty;
}

TriggerGroup StreamingAggregates::GroupOfFunction(FunctionId function) const {
  return function < function_groups_.size() ? function_groups_[function]
                                            : TriggerGroup::kUnknown;
}

void StreamingAggregates::OnFunction(const FunctionRecord& r) {
  // Dense ids, same contract as TraceStore::AddFunction: row i describes id i.
  COLDSTART_CHECK_EQ(static_cast<size_t>(r.function_id), function_groups_.size());
  function_groups_.push_back(GroupOf(r.primary_trigger));
  ++Slot(r.region).functions;
}

void StreamingAggregates::OnRequest(const RequestRecord& r) {
  RegionSlot& slot = Slot(r.region);
  const double exec_s = r.execution_time_us * kMicrosToSeconds;
  slot.counters.requests += 1;
  slot.counters.execution_time_sum_us += r.execution_time_us;
  slot.request_hist.Add(exec_s);
  StreamCounters& group = slot.group_counters[static_cast<size_t>(
      GroupOfFunction(r.function_id))];
  group.requests += 1;
  group.execution_time_sum_us += r.execution_time_us;
}

void StreamingAggregates::OnColdStart(const ColdStartRecord& r) {
  RegionSlot& slot = Slot(r.region);
  const double latency_s = r.cold_start_us * kMicrosToSeconds;
  slot.counters.cold_starts += 1;
  slot.counters.cold_start_latency_sum_us += r.cold_start_us;
  slot.cold_start_hist.Add(latency_s);
  const size_t g = static_cast<size_t>(GroupOfFunction(r.function_id));
  StreamCounters& group = slot.group_counters[g];
  group.cold_starts += 1;
  group.cold_start_latency_sum_us += r.cold_start_us;
  slot.group_cold_start_hists[g].Add(latency_s);
}

void StreamingAggregates::OnPodLifetime(const PodLifetimeRecord& r) {
  RegionSlot& slot = Slot(r.region);
  const uint64_t lifetime_us =
      static_cast<uint64_t>(r.death_time - r.cold_start_begin);
  slot.counters.pods += 1;
  slot.counters.pod_lifetime_sum_us += lifetime_us;
  slot.counters.pod_requests_served += r.requests_served;
  slot.pod_lifetime_hist.Add(lifetime_us * kMicrosToSeconds);
  StreamCounters& group = slot.group_counters[static_cast<size_t>(
      GroupOfFunction(r.function_id))];
  group.pods += 1;
  group.pod_lifetime_sum_us += lifetime_us;
  group.pod_requests_served += r.requests_served;
}

void StreamingAggregates::OnHorizon(SimTime horizon) {
  horizon_ = std::max(horizon_, horizon);
}

void StreamingAggregates::OnRegionCost(const RegionCostRecord& r) {
  Slot(r.region).cost.Add(r);
}

void StreamingAggregates::MergeFrom(const StreamingAggregates& other) {
  // Function tables are replicated per shard, never concatenated: either side may
  // be empty (a sink that saw no function records), otherwise they must agree —
  // content-wise, or per-group rollups would silently sum mismatched groups.
  if (function_groups_.empty()) {
    function_groups_ = other.function_groups_;
  } else if (!other.function_groups_.empty()) {
    COLDSTART_CHECK(function_groups_ == other.function_groups_);
  }
  if (other.regions_.size() > regions_.size()) {
    regions_.resize(other.regions_.size());
  }
  for (size_t r = 0; r < other.regions_.size(); ++r) {
    RegionSlot& dst = regions_[r];
    const RegionSlot& src = other.regions_[r];
    dst.counters.MergeFrom(src.counters);
    dst.cold_start_hist.Merge(src.cold_start_hist);
    dst.request_hist.Merge(src.request_hist);
    dst.pod_lifetime_hist.Merge(src.pod_lifetime_hist);
    for (size_t g = 0; g < kNumTriggerGroups; ++g) {
      dst.group_counters[g].MergeFrom(src.group_counters[g]);
      dst.group_cold_start_hists[g].Merge(src.group_cold_start_hists[g]);
    }
    // Shards register the full population each: keep the max, don't add.
    dst.functions = std::max(dst.functions, src.functions);
    dst.cost.Add(src.cost);
  }
  horizon_ = std::max(horizon_, other.horizon_);
}

namespace {

template <class Ar, class Self>
void CountersLayout(Ar& a, Self& c) {
  a.U64(c.requests);
  a.U64(c.cold_starts);
  a.U64(c.pods);
  a.U64(c.cold_start_latency_sum_us);
  a.U64(c.execution_time_sum_us);
  a.U64(c.pod_lifetime_sum_us);
  a.U64(c.pod_requests_served);
}

}  // namespace

template <class Ar, class Self>
void StreamingAggregates::SlotLayout(Ar& a, Self& slot) {
  CountersLayout(a, slot.counters);
  RegionCostRecord::Layout(a, slot.cost);
  a.U64(slot.functions);
  LogHistogram::Layout(a, slot.cold_start_hist);
  LogHistogram::Layout(a, slot.request_hist);
  LogHistogram::Layout(a, slot.pod_lifetime_hist);
  for (size_t g = 0; g < kNumTriggerGroups; ++g) {
    CountersLayout(a, slot.group_counters[g]);
    LogHistogram::Layout(a, slot.group_cold_start_hists[g]);
  }
}

size_t StreamingAggregates::SlotBytes() {
  static const size_t bytes = [] {
    ByteWriter w;
    const RegionSlot empty;
    SlotLayout(w, empty);
    return w.data().size();
  }();
  return bytes;
}

void StreamingAggregates::SaveState(ByteWriter& w) const {
  w.I64(horizon_);
  w.U64(function_groups_.size());
  for (const TriggerGroup g : function_groups_) {
    w.U8(g);
  }
  w.Count(regions_, SlotBytes());
  for (const RegionSlot& slot : regions_) {
    SlotLayout(w, slot);
  }
}

void StreamingAggregates::RestoreState(ByteReader& r) {
  COLDSTART_CHECK(regions_.empty() && function_groups_.empty());
  r.I64(horizon_);
  // One byte per function: a CRC-valid count too large for the payload dies
  // on this CHECK, not in the allocator (Count bounds the region slots).
  const uint64_t num_functions = r.U64();
  COLDSTART_CHECK(num_functions <= r.Remaining());
  function_groups_.resize(num_functions);
  for (TriggerGroup& g : function_groups_) {
    r.U8(g);
    COLDSTART_CHECK_LT(static_cast<size_t>(g), kNumTriggerGroups);
  }
  r.Count(regions_, SlotBytes());
  for (RegionSlot& slot : regions_) {
    SlotLayout(r, slot);
  }
}

uint64_t StreamingAggregates::functions_in_region(RegionId region) const {
  return SlotOrEmpty(region).functions;
}

const StreamCounters& StreamingAggregates::region(RegionId region) const {
  return SlotOrEmpty(region).counters;
}

const StreamCounters& StreamingAggregates::group(RegionId region,
                                                 TriggerGroup group) const {
  return SlotOrEmpty(region).group_counters[static_cast<size_t>(group)];
}

RegionCostRecord StreamingAggregates::region_cost(RegionId region) const {
  RegionCostRecord out = SlotOrEmpty(region).cost;
  out.region = region;
  return out;
}

RegionCostRecord StreamingAggregates::TotalCost() const {
  RegionCostRecord total;
  for (const RegionSlot& slot : regions_) {
    total.Add(slot.cost);
  }
  return total;
}

StreamCounters StreamingAggregates::Totals() const {
  StreamCounters total;
  for (const RegionSlot& slot : regions_) {
    total.MergeFrom(slot.counters);
  }
  return total;
}

StreamCounters StreamingAggregates::GroupTotals(TriggerGroup group) const {
  StreamCounters total;
  for (const RegionSlot& slot : regions_) {
    total.MergeFrom(slot.group_counters[static_cast<size_t>(group)]);
  }
  return total;
}

const LogHistogram& StreamingAggregates::cold_start_hist(RegionId region) const {
  return SlotOrEmpty(region).cold_start_hist;
}

const LogHistogram& StreamingAggregates::request_hist(RegionId region) const {
  return SlotOrEmpty(region).request_hist;
}

const LogHistogram& StreamingAggregates::pod_lifetime_hist(RegionId region) const {
  return SlotOrEmpty(region).pod_lifetime_hist;
}

const LogHistogram& StreamingAggregates::group_cold_start_hist(
    RegionId region, TriggerGroup group) const {
  return SlotOrEmpty(region).group_cold_start_hists[static_cast<size_t>(group)];
}

LogHistogram StreamingAggregates::MergedColdStartHist() const {
  LogHistogram merged(kColdStartMinS, kColdStartMaxS);
  for (const RegionSlot& slot : regions_) {
    merged.Merge(slot.cold_start_hist);
  }
  return merged;
}

LogHistogram StreamingAggregates::MergedRequestHist() const {
  LogHistogram merged(kRequestMinS, kRequestMaxS);
  for (const RegionSlot& slot : regions_) {
    merged.Merge(slot.request_hist);
  }
  return merged;
}

LogHistogram StreamingAggregates::MergedPodLifetimeHist() const {
  LogHistogram merged(kPodLifetimeMinS, kPodLifetimeMaxS);
  for (const RegionSlot& slot : regions_) {
    merged.Merge(slot.pod_lifetime_hist);
  }
  return merged;
}

LogHistogram StreamingAggregates::GroupColdStartHist(TriggerGroup group) const {
  LogHistogram merged(kColdStartMinS, kColdStartMaxS);
  for (const RegionSlot& slot : regions_) {
    merged.Merge(slot.group_cold_start_hists[static_cast<size_t>(group)]);
  }
  return merged;
}

size_t StreamingAggregates::ApproxBytes() const {
  size_t bytes = sizeof(*this) + function_groups_.capacity() * sizeof(TriggerGroup);
  for (const RegionSlot& slot : regions_) {
    bytes += sizeof(RegionSlot);
    bytes += static_cast<size_t>(slot.cold_start_hist.num_buckets() +
                                 slot.request_hist.num_buckets() +
                                 slot.pod_lifetime_hist.num_buckets()) *
             sizeof(uint64_t);
    for (const LogHistogram& h : slot.group_cold_start_hists) {
      bytes += static_cast<size_t>(h.num_buckets()) * sizeof(uint64_t);
    }
  }
  return bytes;
}

StreamingAggregates AggregatesFromStore(const TraceStore& store) {
  StreamingAggregates aggregates;
  for (const FunctionRecord& r : store.functions()) {
    aggregates.OnFunction(r);
  }
  for (const RequestRecord& r : store.requests()) {
    aggregates.OnRequest(r);
  }
  for (const ColdStartRecord& r : store.cold_starts()) {
    aggregates.OnColdStart(r);
  }
  for (const PodLifetimeRecord& r : store.pods()) {
    aggregates.OnPodLifetime(r);
  }
  aggregates.OnHorizon(store.horizon());
  return aggregates;
}

}  // namespace coldstart::trace
