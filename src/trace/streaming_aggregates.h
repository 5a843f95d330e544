// O(1)-memory streaming trace sink.
//
// Folds every emitted record into per-region and per-trigger-group counters and
// log-bucketed histograms (cold-start latency, request durations, pod lifetimes)
// as the simulation runs, so a month- or year-scale experiment needs memory
// proportional to regions x trigger groups — not to the number of requests. This is
// the "always-on telemetry" half of the trace layer; TraceStore is the exact
// post-hoc half.
//
// Determinism: all accumulators are indexed by (region[, group]), and a region's
// records arrive in the same order whether the run was serial or region-sharded, so
// per-region state — including floating-point histogram sums — is bit-identical
// across thread counts. MergeFrom folds shards in region-index order, which keeps
// every cross-region rollup deterministic too. Sums that feed exact-equality
// contracts (latency, execution time, lifetimes) are integer microseconds.
#ifndef COLDSTART_TRACE_STREAMING_AGGREGATES_H_
#define COLDSTART_TRACE_STREAMING_AGGREGATES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/byte_serde.h"
#include "common/histogram.h"
#include "trace/trace_sink.h"
#include "trace/types.h"

namespace coldstart::trace {

class TraceStore;

// Additive event counters. Integer sums, so merge order can never change a bit.
struct StreamCounters {
  uint64_t requests = 0;
  uint64_t cold_starts = 0;
  uint64_t pods = 0;
  uint64_t cold_start_latency_sum_us = 0;
  uint64_t execution_time_sum_us = 0;
  uint64_t pod_lifetime_sum_us = 0;
  uint64_t pod_requests_served = 0;

  void MergeFrom(const StreamCounters& other);
};

class StreamingAggregates final : public TraceSink {
 public:
  StreamingAggregates() = default;

  // TraceSink: each record folds into its region's (and trigger group's) state.
  void OnFunction(const FunctionRecord& r) override;
  void OnRequest(const RequestRecord& r) override;
  void OnColdStart(const ColdStartRecord& r) override;
  void OnPodLifetime(const PodLifetimeRecord& r) override;
  void OnHorizon(SimTime horizon) override;
  // Cost-ledger totals (one record per region at Finalize); shard partials add.
  void OnRegionCost(const RegionCostRecord& r) override;
  // OnRequest folds only region, function and execution time.
  bool reads_request_resources() const override { return false; }

  // Merges another shard of the same scenario. Shards carry identical function
  // tables (every shard's platform registers the full population); event state is
  // added region-wise. Call in region-index order for deterministic rollups.
  void MergeFrom(const StreamingAggregates& other);

  // --- Queries. ---
  // Highest region seen + 1 (regions with no records still count if a function
  // table row named them).
  size_t num_regions() const { return regions_.size(); }
  SimTime horizon() const { return horizon_; }
  size_t num_functions() const { return function_groups_.size(); }
  uint64_t functions_in_region(RegionId region) const;

  const StreamCounters& region(RegionId region) const;
  const StreamCounters& group(RegionId region, TriggerGroup group) const;
  // Cross-region rollups, folded in region-index order.
  StreamCounters Totals() const;
  StreamCounters GroupTotals(TriggerGroup group) const;

  // Resource-cost totals (platform/cost_ledger.h) as delivered via OnRegionCost.
  // Zero-valued for runs that never finalized a platform into this sink.
  RegionCostRecord region_cost(RegionId region) const;
  RegionCostRecord TotalCost() const;

  // Histograms record seconds. Cold-start latency spans 1ms..10^4s, request
  // execution 10us..10^4s, pod lifetime 10ms..10^9s (decades beyond a year).
  const LogHistogram& cold_start_hist(RegionId region) const;
  const LogHistogram& request_hist(RegionId region) const;
  const LogHistogram& pod_lifetime_hist(RegionId region) const;
  const LogHistogram& group_cold_start_hist(RegionId region, TriggerGroup group) const;
  LogHistogram MergedColdStartHist() const;
  LogHistogram MergedRequestHist() const;
  LogHistogram MergedPodLifetimeHist() const;
  LogHistogram GroupColdStartHist(TriggerGroup group) const;

  // Rough live-memory footprint of this sink (for the memory-budget benches).
  size_t ApproxBytes() const;

  // Checkpoint support (src/checkpoint/): full accumulator state — counters,
  // histograms (doubles by bit pattern), function-group table, horizon. A
  // save/restore round trip is bit-exact, so a resumed run's final aggregates
  // equal the uninterrupted run's.
  void SaveState(ByteWriter& w) const;
  void RestoreState(ByteReader& r);

 private:
  struct RegionSlot {
    RegionSlot();
    StreamCounters counters;
    std::array<StreamCounters, kNumTriggerGroups> group_counters;
    LogHistogram cold_start_hist;
    LogHistogram request_hist;
    LogHistogram pod_lifetime_hist;
    std::array<LogHistogram, kNumTriggerGroups> group_cold_start_hists;
    uint64_t functions = 0;
    // Order-invariant 128-bit cost sums (see RegionCostRecord); plain addition
    // on merge, so shard partials fold exactly.
    RegionCostRecord cost;
  };

  // One slot's checkpoint layout (common/byte_serde.h). Every slot takes
  // SlotBytes(): its histograms have fixed bucket counts.
  template <class Ar, class Self>
  static void SlotLayout(Ar& a, Self& slot);
  static size_t SlotBytes();

  RegionSlot& Slot(RegionId region);
  const RegionSlot& SlotOrEmpty(RegionId region) const;
  TriggerGroup GroupOfFunction(FunctionId function) const;

  std::vector<RegionSlot> regions_;
  // Trigger group per function id (dense, from the function table); metadata, not
  // additive — MergeFrom requires shards to agree.
  std::vector<TriggerGroup> function_groups_;
  SimTime horizon_ = 0;
};

// Folds a (sealed or unsealed) exact store through the streaming sink — the
// reference the streaming path is tested against, and the upgrade path for code
// that has a TraceStore but wants the histogram-based report renderers.
StreamingAggregates AggregatesFromStore(const TraceStore& store);

}  // namespace coldstart::trace

#endif  // COLDSTART_TRACE_STREAMING_AGGREGATES_H_
