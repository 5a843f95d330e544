#include "workload/arrivals.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "stats/distributions.h"

namespace coldstart::workload {

FunctionArrivalCursor::FunctionArrivalCursor(const FunctionSpec& spec,
                                             const DiurnalProfile& profile,
                                             const Calendar& calendar, Rng rng)
    : spec_(&spec), profile_(&profile), calendar_(calendar), rng_(std::move(rng)) {
  // The construction-time draws mirror the whole-horizon generator's preamble
  // exactly; the rest of the stream depends only on per-hour draws, which EmitDay
  // performs in hour order.
  switch (spec_->kind) {
    case ArrivalKind::kModulatedPoisson:
      regular_phase_us_ = rng_.NextDouble() * 1e6;  // Phase carry-over across hours.
      break;
    case ArrivalKind::kTimer:
      COLDSTART_CHECK_GT(spec_->timer_period, 0);
      // Random phase so the fleet's timers do not fire in lockstep.
      timer_next_ = static_cast<SimTime>(rng_.NextDouble() *
                                         static_cast<double>(spec_->timer_period));
      break;
    case ArrivalKind::kWorkflowChild:
      break;  // Invoked by parents at runtime.
  }
}

// Hour-resolution inhomogeneous Poisson: the diurnal/burst envelope changes on hour
// scales, so sampling a Poisson count per hour and spreading points uniformly inside
// the hour loses nothing the analyses can see (everything downstream is per-minute or
// coarser with smoothing).
void FunctionArrivalCursor::EmitPoissonHour(int64_t h, std::vector<SimTime>& out) {
  const FunctionSpec& spec = *spec_;
  const SimTime hour_start = h * kHour;
  const int64_t day = h / 24;
  const double hour_mid = static_cast<double>(h % 24) + 0.5;

  // Burst state machine (hour steps).
  if (spec.burst_amplitude > 1.0) {
    if (bursting_) {
      burst_hours_left_ -= 1.0;
      if (burst_hours_left_ <= 0) {
        bursting_ = false;
      }
    } else if (rng_.NextBool(spec.burst_prob_per_hour)) {
      bursting_ = true;
      burst_hours_left_ =
          std::max(0.5, rng_.NextExponential(1.0 / spec.burst_mean_hours));
    }
  }

  const double gamma = hour_start < spec.diurnal_onset ? 0.0 : spec.diurnal_exponent;
  const double shape = std::pow(profile_->DayShape(hour_mid), gamma);
  // Steady services (regular_arrivals) also damp the weekly/holiday level by their
  // personality exponent: a load balancer's health traffic does not halve on
  // weekends even when user traffic does.
  const double level = spec.regular_arrivals
                           ? std::pow(profile_->DayLevel(day), gamma)
                           : profile_->DayLevel(day);
  const double burst = bursting_ ? spec.burst_amplitude : 1.0;
  const double lambda = spec.base_rate_per_day / 24.0 * shape * level * burst;

  if (spec.regular_arrivals) {
    // Jittered-regular spacing at the hour's rate; gaps cluster near 1/lambda.
    if (lambda > 1e-9) {
      const double step_us = static_cast<double>(kHour) / lambda;
      double t = regular_phase_us_;
      while (t < static_cast<double>(kHour)) {
        out.push_back(hour_start + static_cast<SimTime>(t));
        t += step_us * rng_.Uniform(0.8, 1.2);
      }
      regular_phase_us_ = t - static_cast<double>(kHour);
    }
    return;
  }
  const int n = stats::SamplePoisson(rng_, lambda);
  for (int i = 0; i < n; ++i) {
    out.push_back(hour_start + static_cast<SimTime>(rng_.NextDouble() * kHour));
  }
}

void FunctionArrivalCursor::EmitDay(int64_t day, std::vector<SimTime>& out) {
  COLDSTART_CHECK_EQ(day, next_day_);
  ++next_day_;
  switch (spec_->kind) {
    case ArrivalKind::kModulatedPoisson: {
      const int64_t hours = calendar_.horizon() / kHour;
      const int64_t begin = day * 24;
      const int64_t end = std::min<int64_t>(begin + 24, hours);
      for (int64_t h = begin; h < end; ++h) {
        EmitPoissonHour(h, out);
      }
      break;
    }
    case ArrivalKind::kTimer: {
      const SimTime day_end = std::min((day + 1) * kDay, calendar_.horizon());
      while (timer_next_ < day_end) {
        out.push_back(timer_next_);
        timer_next_ += spec_->timer_period;
      }
      break;
    }
    case ArrivalKind::kWorkflowChild:
      break;
  }
}

template <class Ar, class Self>
void FunctionArrivalCursor::Layout(Ar& a, Self& self) {
  Rng::Layout(a, self.rng_);
  a.I64(self.next_day_);
  a.U8(self.bursting_);
  a.F64(self.burst_hours_left_);
  a.F64(self.regular_phase_us_);
  a.I64(self.timer_next_);
}

SyntheticArrivalStream::SyntheticArrivalStream(
    const Population& pop, const std::vector<RegionProfile>& profiles,
    const Calendar& calendar, uint64_t seed, std::optional<trace::RegionId> region,
    std::optional<CellSlice> cell_slice)
    : calendar_(calendar), num_days_(NumDayChunks(calendar)) {
  // The arrivals root stream; each function forks its own substream off it by id,
  // so which functions this stream instantiates (the region/cell filter) cannot
  // perturb any other function's draws.
  const Rng root(MixHash(seed, HashString("arrivals")));

  // One diurnal profile per region the filter admits, built when its first
  // function is; the slots never move, so cursors can point into them.
  diurnals_.resize(profiles.size());

  functions_.reserve(pop.functions.size());
  for (const auto& spec : pop.functions) {
    COLDSTART_CHECK_LT(spec.region, diurnals_.size());
    if (region.has_value() && spec.region != *region) {
      continue;
    }
    if (cell_slice.has_value() && !cell_slice->Contains(spec.id)) {
      continue;
    }
    std::optional<DiurnalProfile>& diurnal = diurnals_[spec.region];
    if (!diurnal.has_value()) {
      diurnal.emplace(profiles[spec.region].diurnal, calendar);
    }
    functions_.push_back(FunctionEntry{
        spec.id,
        FunctionArrivalCursor(spec, *diurnal, calendar_, root.ForkStream(spec.id))});
  }
}

bool SyntheticArrivalStream::NextChunk(ArrivalChunk* chunk) {
  if (next_day_ >= num_days_) {
    return false;
  }
  const int64_t day = next_day_++;
  chunk->day = day;
  chunk->events.clear();
  for (FunctionEntry& f : functions_) {
    scratch_.clear();
    f.cursor.EmitDay(day, scratch_);
    for (const SimTime t : scratch_) {
      chunk->events.push_back(ArrivalEvent{t, f.id});
    }
  }
  SortDayChunk(*chunk);
  return true;
}

template <class Ar, class Self>
void SyntheticArrivalStream::Layout(Ar& a, Self& self) {
  a.I64(self.next_day_);
  COLDSTART_CHECK_LE(self.next_day_, self.num_days_);
  // The cursor set is construction-derived (same population, same filter), so
  // it must match the saved one entry for entry.
  uint64_t num_functions = self.functions_.size();
  a.U64(num_functions);
  COLDSTART_CHECK_EQ(num_functions, self.functions_.size());
  for (auto& f : self.functions_) {
    trace::FunctionId id = f.id;
    a.U64(id);
    COLDSTART_CHECK_EQ(id, f.id);
    FunctionArrivalCursor::Layout(a, f.cursor);
  }
}

bool SyntheticArrivalStream::SaveState(ByteWriter& w) const {
  Layout(w, *this);
  return true;
}

bool SyntheticArrivalStream::RestoreState(ByteReader& r) {
  Layout(r, *this);
  return true;
}

std::vector<SimTime> GenerateFunctionArrivals(const FunctionSpec& spec,
                                              const DiurnalProfile& profile,
                                              const Calendar& calendar, Rng rng) {
  std::vector<SimTime> out;
  FunctionArrivalCursor cursor(spec, profile, calendar, std::move(rng));
  const int64_t days = NumDayChunks(calendar);
  for (int64_t d = 0; d < days; ++d) {
    cursor.EmitDay(d, out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ArrivalEvent> GenerateArrivals(const Population& pop,
                                           const std::vector<RegionProfile>& profiles,
                                           const Calendar& calendar, uint64_t seed) {
  SyntheticArrivalStream stream(pop, profiles, calendar, seed);
  return DrainArrivalStream(stream);
}

}  // namespace coldstart::workload
