// Time-varying rate modulation: diurnal shape, weekly effect, holiday response.
//
// The multiplier m(t) scales a function's base arrival rate. The diurnal shape is a
// mixture of circular (von Mises-style) bumps so that regions can have narrow peaks at
// different hours (Fig. 5); the weekly effect reproduces the ~30% weekday/weekend pod
// gap (§3.3); holiday responses implement the Fig. 7 patterns (pre-holiday rush, dip,
// catch-up; or the R3-style rise).
#ifndef COLDSTART_WORKLOAD_DIURNAL_H_
#define COLDSTART_WORKLOAD_DIURNAL_H_

#include <vector>

#include "common/sim_time.h"
#include "workload/calendar.h"

namespace coldstart::workload {

// How a region's load responds to the holiday window.
enum class HolidayResponse {
  kDipWithCatchUp,  // R1/R2/R4/R5: day-13 rush, dip during, day-24 catch-up.
  kRise,            // R3: load increases during the holiday.
  kNone,            // Timer-driven load: unaffected.
};

struct DiurnalParams {
  // Each bump is amplitude * exp(concentration * (cos(2*pi*(h - peak_hour)/24) - 1)).
  struct Bump {
    double peak_hour = 10.0;
    double amplitude = 1.0;
    double concentration = 4.0;  // Higher = narrower peak.
  };
  double floor = 0.25;  // Night-time base level.
  // One bump at the Bump defaults. Sized, not brace-initialized: GCC 12 at -O3
  // reports the initializer_list copy as maybe-uninitialized wherever a
  // RegionProfile is built.
  std::vector<Bump> bumps = std::vector<Bump>(1);
  double weekend_factor = 0.7;
  HolidayResponse holiday = HolidayResponse::kDipWithCatchUp;
  double holiday_level = 0.55;       // Load level during the holiday (dip) or rise factor.
  double pre_holiday_boost = 1.18;   // Day-13 rush.
  double catch_up_boost = 1.30;      // Day-24 spike, decaying over the next days.
  double catch_up_decay_days = 2.0;
};

class DiurnalProfile {
 public:
  DiurnalProfile(DiurnalParams params, Calendar calendar);

  // Rate multiplier at simulated time t. Normalized so the workday diurnal peak is ~1.
  double RateMultiplier(SimTime t) const;

  // The pure time-of-day shape in [floor/peak, 1] (no weekly/holiday effects).
  double DayShape(double hour_of_day) const;

  // Day-level multiplier (weekly x holiday), applied on top of the day shape.
  double DayLevel(int64_t day) const;

  const DiurnalParams& params() const { return params_; }

 private:
  // Unnormalized day shape (floor + bump mixture).
  double DayShapeRaw(double hour_of_day) const;

  DiurnalParams params_;
  Calendar calendar_;
  double peak_norm_ = 1.0;
};

}  // namespace coldstart::workload

#endif  // COLDSTART_WORKLOAD_DIURNAL_H_
