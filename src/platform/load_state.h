// Instantaneous per-region load counters.
//
// These are the shared load drivers that couple cold-start components to demand: the
// scheduler queue and registry congestion terms of the pipeline read them, which is
// what produces the Figure 11/12 correlations mechanistically instead of by sampling
// correlated noise.
#ifndef COLDSTART_PLATFORM_LOAD_STATE_H_
#define COLDSTART_PLATFORM_LOAD_STATE_H_

#include <cmath>
#include <cstdint>

#include "common/sim_time.h"

namespace coldstart::platform {

struct RegionLoadState {
  int active_cold_starts = 0;   // Cold-start pipelines currently in flight.
  int active_code_deploys = 0;  // Concurrent package downloads.
  int active_dep_deploys = 0;   // Concurrent dependency-layer fetches.
  int64_t prewarm_spawns = 0;   // Pods started by policies rather than requests.
  int64_t delayed_allocations = 0;  // Requests admitted late by peak shaving.

  // Exponentially-decayed count of recent cold starts (~5-minute window). This is the
  // shared congestion driver behind the Figure 12 correlations: scheduler queues and
  // registry fabrics slow down when the regional cold-start rate rises.
  double cold_start_window = 0;
  SimTime window_updated = 0;

  static constexpr SimDuration kWindowTau = 5 * kMinute;

  void DecayWindow(SimTime now) {
    if (now > window_updated) {
      cold_start_window *= std::exp(-static_cast<double>(now - window_updated) /
                                    static_cast<double>(kWindowTau));
      window_updated = now;
    }
  }

  // Records one cold start into the window (call before computing the pipeline so the
  // event sees its own contribution to congestion).
  void ObserveColdStart(SimTime now) {
    DecayWindow(now);
    cold_start_window += 1.0;
  }
};

}  // namespace coldstart::platform

#endif  // COLDSTART_PLATFORM_LOAD_STATE_H_
