// Binary trace serialization: the fast path for the scenario cache.
//
// One file holds all four tables as length-prefixed arrays of packed records, plus an
// optional per-region aggregate block (the platform counters an ExperimentResult
// carries) so a cache hit restores exactly what a fresh run would have produced. The
// format is local to a build (records are written with memcpy semantics and guarded
// by size fields in the header); cross-toolchain interchange should use csv.h.
#ifndef COLDSTART_TRACE_BINARY_IO_H_
#define COLDSTART_TRACE_BINARY_IO_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_store.h"

namespace coldstart::trace {

// Per-region platform counters persisted alongside the trace: one series per
// ExperimentResult per-region vector, in its order (visible cold starts, prewarm
// spawns, delayed and scratch allocations, cold-start latency sum in µs), each
// with one entry per region.
inline constexpr size_t kNumRegionSeries = 5;
struct TraceAggregates {
  std::array<std::vector<int64_t>, kNumRegionSeries> region_series;
  uint64_t events_processed = 0;  // The simulator's total event count.
  // Opaque resource-cost ledger state (platform::ResourceCostLedger::SaveState
  // bytes). The trace layer cannot depend on platform/, so it round-trips the
  // blob verbatim; empty = the file predates cost tracking or carried none.
  std::string cost_ledger;
};

// Writes the whole store (and, when given, the aggregate block); returns false on
// I/O failure. The write is atomic (tmp + fsync + rename): a crash mid-write
// leaves the previous file, never a truncated one, at `path`.
bool WriteBinaryTrace(const TraceStore& store, const std::string& path,
                      const TraceAggregates* aggregates = nullptr);

// Reads into an empty store; returns false on I/O failure, bad magic, a record layout
// mismatch (e.g. cache written by a different build), a header whose table counts
// do not match the actual file size (truncated or corrupt files are rejected before
// any allocation is sized from them), or a payload CRC mismatch (bit rot — reported
// on stderr naming the file). When `aggregates` is non-null and the file
// carries an aggregate block, it is filled in; a file without one leaves it empty.
bool ReadBinaryTrace(const std::string& path, TraceStore& store,
                     TraceAggregates* aggregates = nullptr);

}  // namespace coldstart::trace

#endif  // COLDSTART_TRACE_BINARY_IO_H_
