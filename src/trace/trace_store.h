// In-memory columnar store for one scenario's traces: the exact-record TraceSink.
//
// One TraceStore holds all five regions' tables, exactly as a month of the released
// dataset would. Append during simulation, Seal() once, then run analyses. Records are
// stored in flat vectors; Seal() sorts into a canonical (timestamp, region, id) total
// order so analyses can assume time order and so a store assembled from per-region
// shards (AppendFrom) seals to exactly the same byte sequence as a serial run. A
// serial run's tables arrive nearly sorted, and Seal() merges just their out-of-place
// rows back in; concatenated shards get a full sort. Either way the bytes are those
// of a full sort.
// Runs that cannot afford full materialization emit into a StreamingAggregates sink
// instead (TraceMode::kStreaming).
#ifndef COLDSTART_TRACE_TRACE_STORE_H_
#define COLDSTART_TRACE_TRACE_STORE_H_

#include <vector>

#include "trace/records.h"
#include "trace/trace_sink.h"

namespace coldstart::trace {

class TraceStore final : public TraceSink {
 public:
  TraceStore() = default;

  // Move-only: stores can be hundreds of MB.
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;
  TraceStore(TraceStore&&) = default;
  TraceStore& operator=(TraceStore&&) = default;

  void AddRequest(const RequestRecord& r) { requests_.push_back(r); }
  void AddColdStart(const ColdStartRecord& r) { cold_starts_.push_back(r); }
  void AddPodLifetime(const PodLifetimeRecord& r) { pods_.push_back(r); }

  // Registers a function; function_id must equal the current table size (dense ids).
  void AddFunction(const FunctionRecord& r);

  // TraceSink: emission appends to the tables.
  void OnRequest(const RequestRecord& r) override { AddRequest(r); }
  void OnColdStart(const ColdStartRecord& r) override { AddColdStart(r); }
  void OnPodLifetime(const PodLifetimeRecord& r) override { AddPodLifetime(r); }
  void OnFunction(const FunctionRecord& r) override { AddFunction(r); }
  void OnHorizon(SimTime horizon) override { set_horizon(horizon); }

  // Merges another shard of the same scenario into this store: request, cold-start,
  // and pod tables are appended (consumed from `other`); the function table — which
  // every shard emits identically — must already match and is left untouched. The
  // horizon becomes the max of the two. Seal() afterwards restores the canonical
  // order, which is what makes a per-region sharded run byte-identical to serial.
  void AppendFrom(TraceStore&& other);

  // Sorts request/cold-start/pod tables into the canonical total order
  // (timestamp, region, record id). Deterministic in the record *multiset* — the
  // insertion order never shows through — and idempotent. Costs O(n + k log k)
  // for k rows out of place, up to half the table; a full sort beyond that.
  void Seal();
  bool sealed() const { return sealed_; }

  const std::vector<RequestRecord>& requests() const { return requests_; }
  const std::vector<ColdStartRecord>& cold_starts() const { return cold_starts_; }
  const std::vector<FunctionRecord>& functions() const { return functions_; }
  const std::vector<PodLifetimeRecord>& pods() const { return pods_; }

  const FunctionRecord& function(FunctionId id) const { return functions_.at(id); }

  // Trace horizon: duration covered by the store, set by the simulator.
  void set_horizon(SimTime end) { horizon_ = end; }
  SimTime horizon() const { return horizon_; }

  void Reserve(size_t requests, size_t cold_starts, size_t pods);

  // Checkpoint support (src/checkpoint/): bulk-installs the tables of a partial,
  // unsealed store captured mid-run, exactly as saved. This store must be empty.
  void RestoreTables(std::vector<RequestRecord> requests,
                     std::vector<ColdStartRecord> cold_starts,
                     std::vector<FunctionRecord> functions,
                     std::vector<PodLifetimeRecord> pods, SimTime horizon);

 private:
  std::vector<RequestRecord> requests_;
  std::vector<ColdStartRecord> cold_starts_;
  std::vector<FunctionRecord> functions_;
  std::vector<PodLifetimeRecord> pods_;
  SimTime horizon_ = 0;
  bool sealed_ = false;
};

// Order-sensitive 64-bit digest over every field of every record table plus the
// horizon. Two sealed stores digest equal iff they are field-wise identical, so a
// single number pins a whole run: the golden-trace regression test and the replay
// round-trip check both compare digests instead of multi-GB tables.
uint64_t Digest(const TraceStore& store);

}  // namespace coldstart::trace

#endif  // COLDSTART_TRACE_TRACE_STORE_H_
