// The dataset schema: one record type per monitoring stream of Table 1.
//
// Field names and units follow the paper: timestamps and durations in microseconds,
// CPU usage in millicores, memory in bytes (stored as KB to keep records compact).
// IDs are numeric; HashedId() reproduces the released dataset's hashed string form.
//
// The record tables are saved as raw bytes (checkpoints, the trace cache), so
// every record has an explicit, zero-initialised member where the compiler
// would otherwise leave a padding hole: equal records are equal bytes.
#ifndef COLDSTART_TRACE_RECORDS_H_
#define COLDSTART_TRACE_RECORDS_H_

#include <string>

#include "common/sim_time.h"
#include "trace/types.h"

namespace coldstart::trace {

// Request-level monitoring (one row per request).
struct RequestRecord {
  SimTime timestamp = 0;        // At the worker, µs.
  uint64_t request_id = 0;      // Hashed request ID.
  PodId pod_id = 0;
  FunctionId function_id = 0;
  UserId user_id = 0;
  RegionId region = 0;
  ClusterId cluster = 0;
  uint16_t cpu_millicores = 0;  // CPU usage of the request.
  uint32_t execution_time_us = 0;
  uint32_t memory_kb = 0;       // Memory usage (Table 1 reports bytes; we store KB).
};

// Pod-level monitoring (one row per cold-start event).
struct ColdStartRecord {
  SimTime timestamp = 0;  // When the cold start began, µs.
  PodId pod_id = 0;
  FunctionId function_id = 0;
  UserId user_id = 0;
  RegionId region = 0;
  ClusterId cluster = 0;
  uint8_t pad0[2] = {};
  uint32_t cold_start_us = 0;    // Total; equals the sum of the four components.
  uint32_t pod_alloc_us = 0;     // Time to get a pod from the pool (or from scratch).
  uint32_t deploy_code_us = 0;   // Download + extract + deploy the function package.
  uint32_t deploy_dep_us = 0;    // Fetch + load dependency layers (0 = no layers).
  uint32_t scheduling_us = 0;    // Networking, routing, scheduling overheads.
  uint8_t pad1[4] = {};
};

// Function-level monitoring (one row per function).
struct FunctionRecord {
  FunctionId function_id = 0;
  UserId user_id = 0;
  RegionId region = 0;
  Runtime runtime = Runtime::kUnknown;
  Trigger primary_trigger = Trigger::kUnknown;
  uint8_t pad0 = 0;
  uint16_t trigger_mask = 0;  // Bit i set <=> function has Trigger(i) attached.
  ResourceConfig config = ResourceConfig::k300m128;
  uint8_t pad1 = 0;
};

// Pod lifecycle (simulator-internal convenience table; the paper reconstructs the same
// information from the request table + the 60 s keep-alive constant). Analysis code
// uses it for utility ratios, and tests cross-check it against reconstruction.
struct PodLifetimeRecord {
  PodId pod_id = 0;
  FunctionId function_id = 0;
  RegionId region = 0;
  ClusterId cluster = 0;
  ResourceConfig config = ResourceConfig::k300m128;
  uint8_t pad0[5] = {};
  SimTime cold_start_begin = 0;
  SimTime ready_time = 0;       // cold_start_begin + cold_start_us.
  SimTime last_busy_end = 0;    // Latest end of the requests it served.
  SimTime death_time = 0;       // last_busy_end + keep-alive, or censored at the
                                // horizon (never before last_busy_end).
  uint32_t cold_start_us = 0;
  uint32_t requests_served = 0;
};

// Resource-cost totals for one region, emitted once per region at Finalize by
// the platform's ResourceCostLedger (simulator-internal; not part of the paper's
// dataset schema). The accumulators are order-invariant integer sums — exact
// microsecond counts plus one 2^-20 fixed-point MB·s sum — carried as 128-bit
// values so shard merges are plain additions that commute bit for bit.
struct RegionCostRecord {
  RegionId region = 0;
  __int128 pod_us = 0;             // Σ pod lifetime (cold-start begin → death), µs.
  __int128 warm_idle_us = 0;       // Σ time pods sat warm with zero requests, µs.
  __int128 snapshot_mb_us_fp = 0;  // Σ snapshot MB × lifetime µs, in 2^-20 units.
  int64_t scratch_creations = 0;   // From-scratch pod creations (incl. custom images).

  double pod_seconds() const { return static_cast<double>(pod_us) * 1e-6; }
  double warm_idle_seconds() const { return static_cast<double>(warm_idle_us) * 1e-6; }
  double snapshot_mb_seconds() const {
    return static_cast<double>(snapshot_mb_us_fp) / (1048576.0 * 1e6);
  }

  // Adds the four sums (a shard merge or a cross-region total).
  void Add(const RegionCostRecord& other) {
    pod_us += other.pod_us;
    warm_idle_us += other.warm_idle_us;
    snapshot_mb_us_fp += other.snapshot_mb_us_fp;
    scratch_creations += other.scratch_creations;
  }

  // Checkpoint layout (common/byte_serde.h) of the four sums, shared by the
  // cost ledger and the streaming sink; `region` is the slot's index there.
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self) {
    a.I128(self.pod_us);
    a.I128(self.warm_idle_us);
    a.I128(self.snapshot_mb_us_fp);
    a.I64(self.scratch_creations);
  }
};

// Reproduces the dataset's hashed-ID form for CSV export ("a3f9..." style, 16 hex chars).
std::string HashedId(uint64_t raw);

inline uint16_t TriggerBit(Trigger t) { return static_cast<uint16_t>(1u << static_cast<int>(t)); }

}  // namespace coldstart::trace

#endif  // COLDSTART_TRACE_RECORDS_H_
