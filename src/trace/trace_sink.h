// The record-emission interface that decouples *recording* a trace from *storing* one.
//
// The platform emits one callback per Table 1 record as simulation time advances; what
// happens to the record is the sink's business. TraceStore (the in-memory columnar
// store every post-hoc analysis runs over) is one sink; StreamingAggregates folds each
// record into O(1)-memory counters and histograms on the fly, which is what makes
// month- and year-scale runs possible without materializing hundreds of MB of tables.
//
// Contract: OnFunction is called once per function, before any event-stream callback
// that references it (the platform writes the whole function table at construction).
// OnRequest/OnColdStart/OnPodLifetime arrive in simulation emission order, which for
// any single region is identical between a serial run and that region's shard — the
// invariant that lets per-region streaming accumulators merge deterministically.
// OnHorizon is called once per run, at Finalize(). OnRegionCost arrives after it,
// once per region in region-index order, carrying the resource-cost ledger totals;
// the default no-op keeps sinks that only care about Table 1 records unchanged.
//
// Capability: reads_request_resources() says whether the sink reads a
// RequestRecord's cpu_millicores/memory_kb. A sink that returns false gets those
// fields zeroed; the platform still makes the two draws and skips only turning
// them into values, so the stream (and every other field) is identical either
// way. The default is true:
// a sink that forwards records elsewhere (a decorator) cannot know what its
// target reads, so it gets the full record unless it says otherwise.
#ifndef COLDSTART_TRACE_TRACE_SINK_H_
#define COLDSTART_TRACE_TRACE_SINK_H_

#include "trace/records.h"

namespace coldstart::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void OnFunction(const FunctionRecord& r) = 0;
  virtual void OnRequest(const RequestRecord& r) = 0;
  virtual void OnColdStart(const ColdStartRecord& r) = 0;
  virtual void OnPodLifetime(const PodLifetimeRecord& r) = 0;
  virtual void OnHorizon(SimTime horizon) = 0;
  // Cost totals are additive across shards; a shard emits its own partial sums
  // and the merge is integer addition (see RegionCostRecord).
  virtual void OnRegionCost(const RegionCostRecord& r) { (void)r; }
  virtual bool reads_request_resources() const { return true; }
};

}  // namespace coldstart::trace

#endif  // COLDSTART_TRACE_TRACE_SINK_H_
