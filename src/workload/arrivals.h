// Exogenous arrival generation.
//
// Produces every externally-triggered request (modulated Poisson + timers) for a
// population over the trace horizon. Workflow children are *not* generated here: they
// are invoked at runtime by the platform when their parents complete, which is what
// makes call-chain prediction (§5) a meaningful policy.
//
// Generation is day-incremental: FunctionArrivalCursor walks one function's arrival
// process a day at a time carrying the generator state (RNG position, burst state
// machine, phase) across the boundary, and SyntheticArrivalStream merges a
// population's cursors into day-batched ArrivalChunks. The eager helpers below are
// thin shims over the cursors — both paths draw the identical RNG sequence, so
// chunked and materialized generation are bit-identical (pinned by workload_test).
#ifndef COLDSTART_WORKLOAD_ARRIVALS_H_
#define COLDSTART_WORKLOAD_ARRIVALS_H_

#include <optional>
#include <vector>

#include "common/rng.h"
#include "workload/arrival_stream.h"
#include "workload/calendar.h"
#include "workload/diurnal.h"
#include "workload/function_cells.h"
#include "workload/population.h"

namespace coldstart::workload {

// Number of day chunks covering the calendar's horizon (arrival_stream.h).
inline int64_t NumDayChunks(const Calendar& calendar) {
  return NumDayChunks(calendar.horizon());
}

// One function's arrival process, advanced a day at a time.
//
// The cursor owns exactly the state the whole-horizon generator threads through
// its hour loop — the RNG, the burst state machine, the jittered-regular phase,
// and the next timer tick — so emitting days 0..N-1 in order performs the same
// draws in the same order as generating the full horizon at once. Seeding is
// per-function (Rng::ForkStream(spec.id) off the arrivals root stream), which is
// what makes a region's functions independent of every other region's and lets a
// fresh cursor regenerate any window bit-identically by fast-forwarding.
class FunctionArrivalCursor {
 public:
  // `spec` and `profile` are borrowed and must outlive the cursor.
  FunctionArrivalCursor(const FunctionSpec& spec, const DiurnalProfile& profile,
                        const Calendar& calendar, Rng rng);

  // The next day EmitDay will produce (days must be consumed in order).
  int64_t next_day() const { return next_day_; }

  // Appends this function's arrivals with time in [day * kDay, (day + 1) * kDay)
  // — clipped to the horizon — to `out`. Poisson hours come out unsorted; the
  // stream sorts the merged day chunk once (SortDayChunk, arrival_stream.h).
  // Requires day == next_day().
  void EmitDay(int64_t day, std::vector<SimTime>& out);

  // Checkpoint layout (common/byte_serde.h): the exact carried state (RNG
  // words, burst machine, regular phase, next timer tick; doubles by bit
  // pattern). Restoring onto a freshly constructed cursor for the same (spec,
  // profile, calendar, rng seed) makes subsequent EmitDay calls draw the
  // identical sequence.
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

 private:
  void EmitPoissonHour(int64_t hour, std::vector<SimTime>& out);

  const FunctionSpec* spec_;
  const DiurnalProfile* profile_;
  Calendar calendar_;
  Rng rng_;
  int64_t next_day_ = 0;
  // Modulated-Poisson state carried across hour (and therefore day) boundaries.
  bool bursting_ = false;
  double burst_hours_left_ = 0;
  double regular_phase_us_ = 0;
  // Timer state: absolute time of the next tick.
  SimTime timer_next_ = 0;
};

// The synthetic generator as a day-chunked stream: one FunctionArrivalCursor per
// (in-filter) function, merged and sorted per day by SortDayChunk's minute
// buckets into (time, function) order. Peak memory is
// O(busiest day), independent of the horizon. `pop` is borrowed and must outlive
// the stream; profiles/calendar are copied. With `region` set, only that region's
// functions are generated — the same subsequence a full stream would yield for
// them, since every function draws from its own RNG substream. `cell_slice`
// refines the filter to a capacity-cell range the same way.
class SyntheticArrivalStream final : public ArrivalStream {
 public:
  SyntheticArrivalStream(const Population& pop,
                         const std::vector<RegionProfile>& profiles,
                         const Calendar& calendar, uint64_t seed,
                         std::optional<trace::RegionId> region = std::nullopt,
                         std::optional<CellSlice> cell_slice = std::nullopt);

  bool NextChunk(ArrivalChunk* chunk) override;
  // Checkpoint support: the per-function cursor states plus the day counter.
  bool SaveState(ByteWriter& w) const override;
  bool RestoreState(ByteReader& r) override;

 private:
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

  struct FunctionEntry {
    trace::FunctionId id;
    FunctionArrivalCursor cursor;
  };
  Calendar calendar_;
  std::vector<std::optional<DiurnalProfile>> diurnals_;  // Per region; built if admitted.
  std::vector<FunctionEntry> functions_;  // In population (id) order.
  std::vector<SimTime> scratch_;          // Per-function day buffer, reused.
  int64_t next_day_ = 0;
  int64_t num_days_ = 0;
};

// Generates all exogenous arrivals in [0, calendar.horizon()), sorted by
// (time, function). Deterministic in (pop, profiles, calendar, seed). Eager shim
// over SyntheticArrivalStream — prefer the stream for anything long-horizon.
std::vector<ArrivalEvent> GenerateArrivals(const Population& pop,
                                           const std::vector<RegionProfile>& profiles,
                                           const Calendar& calendar, uint64_t seed);

// Arrivals for a single function, sorted by time (exposed for tests and workload
// inspection tools). Eager shim over FunctionArrivalCursor.
std::vector<SimTime> GenerateFunctionArrivals(const FunctionSpec& spec,
                                              const DiurnalProfile& profile,
                                              const Calendar& calendar, Rng rng);

}  // namespace coldstart::workload

#endif  // COLDSTART_WORKLOAD_ARRIVALS_H_
