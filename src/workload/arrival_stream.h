// Pull-based, day-chunked arrival streaming.
//
// The paper's analyses run over a month-long trace of 85 billion requests; a
// year-scale sweep at that request volume cannot afford the ~16 bytes/request of
// a materialized arrival vector — the last linear-in-days memory term of a run
// after the streaming trace sink (trace/trace_sink.h) made recording O(1).
// An ArrivalStream replaces the vector: the platform pulls one day-batched
// ArrivalChunk at a time from inside its day-batch injector, so arrival memory
// is O(busiest day), independent of the horizon.
//
// Contracts (docs/determinism.md "Chunked arrival generation"):
//   * A stream yields exactly ceil(horizon / kDay) chunks, one per day index in
//     increasing order starting at day 0; a day with no arrivals yields an empty
//     chunk. NextChunk returns false only after the last day.
//   * Chunk `day` contains exactly the stream's arrivals with
//     time in [day * kDay, min((day + 1) * kDay, horizon)), sorted by
//     (time, function) — the same canonical order the eager vector uses.
//   * Concatenating every chunk of OpenStream(...) reproduces the eager
//     WorkloadSource::Arrivals(...) vector bit for bit (Arrivals is implemented
//     as exactly that concatenation).
//   * A region-filtered stream yields, per day, the subsequence of the unfiltered
//     chunk whose functions live in that region, order preserved — the same
//     partition the sharded experiment runner used to build eagerly.
//   * Streams are deterministic in their construction arguments: two streams
//     opened with the same (source, pop, profiles, calendar, seed, filter) yield
//     bit-identical chunk sequences, so any window can be regenerated by opening
//     a fresh stream and discarding the days before it.
#ifndef COLDSTART_WORKLOAD_ARRIVAL_STREAM_H_
#define COLDSTART_WORKLOAD_ARRIVAL_STREAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/byte_serde.h"
#include "common/sim_time.h"
#include "trace/types.h"

namespace coldstart::workload {

// One externally-triggered request (workflow children are invoked at runtime by
// the platform when their parents complete, never generated here).
struct ArrivalEvent {
  SimTime time = 0;
  trace::FunctionId function = 0;
};

// The canonical arrival order: (time, function). Chunk contents, the eager
// vector, and the platform's sorted-stream CHECK all use exactly this
// comparator — day windows partition the horizon, so sorting each chunk into
// this order and concatenating reproduces the globally sorted vector.
inline bool ArrivalOrderLess(const ArrivalEvent& a, const ArrivalEvent& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.function < b.function;
}

// Number of day chunks covering [0, horizon): ceil(horizon / kDay). Part of the
// stream contract — every stream yields exactly this many chunks.
inline int64_t NumDayChunks(SimTime horizon) { return (horizon + kDay - 1) / kDay; }

// One day of arrivals. `events` is sorted by ArrivalOrderLess and every time lies
// in [day * kDay, (day + 1) * kDay) clipped to the stream's horizon.
struct ArrivalChunk {
  int64_t day = 0;
  std::vector<ArrivalEvent> events;
};

// Sorts a chunk into ArrivalOrderLess order in place. Every event must lie in
// [day * kDay, (day + 1) * kDay) (CHECKed). Both generating streams call it once
// per day on the events they appended. It partitions the chunk by minute of the
// day (a counting pass, prefix sums, then an American-flag cycle permutation
// that moves each event straight to its minute's range), then sorts each minute
// (about 20 events at 0.1x scale, 220 at paper scale) with ArrivalOrderLess.
// The two offset tables live on the stack, so no second buffer and no
// per-stream table is kept. ArrivalOrderLess is a total order whose equal
// elements are identical, so the result is exactly what a comparison sort of
// the whole chunk would produce, byte for byte.
void SortDayChunk(ArrivalChunk& chunk);

// A forward-only stream of day chunks. Implementations may borrow the population
// (and, for replay, the recorded event buffer) they were opened over: both must
// outlive the stream.
class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;

  // Fills `chunk` with the next day (clearing any previous contents) and returns
  // true; returns false once every day in [0, ceil(horizon / kDay)) has been
  // yielded. Implementations reuse chunk->events' capacity across calls.
  virtual bool NextChunk(ArrivalChunk* chunk) = 0;

  // --- Checkpoint support (src/checkpoint/) ---------------------------------
  // Serializes everything NextChunk threads across day boundaries (cursor
  // positions, RNG words, burst machines) so a fresh stream opened over the
  // same construction arguments continues bit-identically after RestoreState.
  // Both return true on success; a checkpoint CHECK-fails on false.
  // Implementations must be symmetric: RestoreState consumes exactly what
  // SaveState wrote.
  virtual bool SaveState(ByteWriter& w) const = 0;
  virtual bool RestoreState(ByteReader& r) = 0;
};

// Wraps an already-materialized, (time, function)-sorted arrival vector as a
// stream of day chunks. Compatibility bridge for callers that still hold eager
// vectors (tests, benchmarks); it obviously does not reduce peak memory.
class MaterializedArrivalStream final : public ArrivalStream {
 public:
  // `num_days` is ceil(horizon / kDay): the chunk count the stream must yield,
  // including trailing empty days.
  MaterializedArrivalStream(std::vector<ArrivalEvent> events, int64_t num_days);

  bool NextChunk(ArrivalChunk* chunk) override;
  bool SaveState(ByteWriter& w) const override;
  bool RestoreState(ByteReader& r) override;

 private:
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

  std::vector<ArrivalEvent> events_;
  size_t next_ = 0;
  int64_t next_day_ = 0;
  int64_t num_days_ = 0;
};

// Concatenates every remaining chunk (the eager shim shared by
// WorkloadSource::Arrivals and tests).
std::vector<ArrivalEvent> DrainArrivalStream(ArrivalStream& stream);

}  // namespace coldstart::workload

#endif  // COLDSTART_WORKLOAD_ARRIVAL_STREAM_H_
