// Trace calendar: weekends and the week-long holiday.
//
// The paper's trace is 31 days containing a major week-long holiday: day 13 is the last
// working day before it, days 14-23 are the holiday, day 24 the first working day after
// (§3.2). Day 0 of our trace is a Monday so that weekly periodicity lines up with
// weekday/weekend effects.
#ifndef COLDSTART_WORKLOAD_CALENDAR_H_
#define COLDSTART_WORKLOAD_CALENDAR_H_

#include <cstdint>

#include "common/sim_time.h"

namespace coldstart::workload {

class Calendar {
 public:
  struct Options {
    int trace_days = 31;
    int holiday_first_day = 14;  // Inclusive.
    int holiday_last_day = 23;   // Inclusive.
    // Day-of-week of trace day 0 (0 = Monday). The default makes day 0 a Tuesday so
    // that both day 13 (last pre-holiday workday) and day 24 (first post-holiday
    // workday) land on weekdays, matching the paper's calendar.
    int first_weekday = 1;
  };

  Calendar() : Calendar(Options{}) {}
  explicit Calendar(const Options& opts) : opts_(opts) {}

  int trace_days() const { return opts_.trace_days; }
  SimTime horizon() const { return static_cast<SimTime>(opts_.trace_days) * kDay; }

  bool IsHoliday(int64_t day) const {
    return day >= opts_.holiday_first_day && day <= opts_.holiday_last_day;
  }
  bool IsWeekend(int64_t day) const {
    const int dow = static_cast<int>((day + opts_.first_weekday) % 7);
    return dow == 5 || dow == 6;
  }

  int last_workday_before_holiday() const { return opts_.holiday_first_day - 1; }
  int first_workday_after_holiday() const { return opts_.holiday_last_day + 1; }

  // Days elapsed since the holiday ended (0 on the first post-holiday day); negative
  // during or before the holiday.
  int64_t DaysSinceHolidayEnd(int64_t day) const { return day - opts_.holiday_last_day - 1; }

 private:
  Options opts_;
};

}  // namespace coldstart::workload

#endif  // COLDSTART_WORKLOAD_CALENDAR_H_
