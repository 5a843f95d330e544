#include "policy/prewarm.h"

#include <cmath>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

namespace {
// TimerAwarePrewarmPolicy.
constexpr SimDuration kLeadTime = 5 * kSecond;  // Spawn this long before the fire.
constexpr SimDuration kMaxPeriod = 2 * kHour;   // Don't prewarm rarer functions.
// |IAT - estimate| / estimate within this counts as one more periodic interval.
constexpr double kStabilityTolerance = 0.05;
constexpr int kMinObservations = 3;

// ProfilePrewarmPolicy.
// Prewarm when the next minute's expected arrivals reach this.
constexpr double kMinExpectedArrivals = 0.3;
constexpr SimDuration kProfilePrewarmKeepAlive = 2 * kMinute;
}  // namespace

void TimerAwarePrewarmPolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  COLDSTART_CHECK(platform_ != nullptr);
  FunctionHistory& h = history_.Touch(spec.id);
  if (h.last_arrival < 0) {
    h.last_arrival = now;
    return;
  }
  const double iat = static_cast<double>(now - h.last_arrival);
  h.last_arrival = now;
  if (iat <= 0) {
    return;
  }
  if (h.period_estimate <= 0) {
    h.period_estimate = iat;
    h.stable_count = 1;
    return;
  }
  const double rel_err = std::fabs(iat - h.period_estimate) / h.period_estimate;
  if (rel_err <= kStabilityTolerance) {
    ++h.stable_count;
    h.period_estimate = 0.7 * h.period_estimate + 0.3 * iat;
  } else {
    h.stable_count = 0;
    h.period_estimate = iat;
    return;
  }

  const auto period = static_cast<SimDuration>(h.period_estimate);
  const bool periodic_enough = h.stable_count >= kMinObservations;
  const bool outside_keep_alive =
      period > platform_->default_keep_alive() && period <= kMaxPeriod;
  if (!periodic_enough || !outside_keep_alive) {
    return;
  }
  // The pod serving the current fire dies after its keep-alive; spawn a fresh pod just
  // before the next fire. Survival window covers prediction error on both sides.
  const SimDuration until_next = period - kLeadTime;
  if (until_next <= 0) {
    return;
  }
  const SimDuration survival = 2 * kLeadTime + 10 * kSecond;
  platform_->SpawnPrewarmedPodAt(now + until_next, spec.id, spec.region, survival);
  ++prewarms_issued_;
}

bool TimerAwarePrewarmPolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.I64(prewarms_issued_);
  history_.SaveEntries(w, [&w](const FunctionHistory& h) {
    w.I64(h.last_arrival);
    w.F64(h.period_estimate);
    w.I64(h.stable_count);
  });
  *out = w.Take();
  return true;
}

bool TimerAwarePrewarmPolicy::RestorePolicyState(std::string_view blob) {
  ByteReader r(blob);
  prewarms_issued_ = r.I64();
  history_.RestoreEntries(r, [&r](FunctionHistory& h) {
    h.last_arrival = r.I64();
    h.period_estimate = r.F64();
    h.stable_count = static_cast<int>(r.I64());
  });
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

void ProfilePrewarmPolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  Profile& prof = profiles_.Touch(spec.id);
  const int minute = static_cast<int>((TimeOfDay(now)) / kMinute);
  prof.per_minute[static_cast<size_t>(minute)] += 1.0f;
}

void ProfilePrewarmPolicy::OnColdStart(const workload::FunctionSpec& spec, SimTime,
                                       SimDuration) {
  watch_list_.insert(spec.id);
}

void ProfilePrewarmPolicy::OnMinuteTick(SimTime now) {
  COLDSTART_CHECK(platform_ != nullptr);
  const int64_t day = DayIndex(now);
  if (day < 1) {
    return;  // Need at least one day of history before the profile means anything.
  }
  const int next_minute = static_cast<int>(((TimeOfDay(now)) / kMinute + 1) % 1440);
  // One budget per home region: a region's functions, walked in fid order,
  // spend only their own region's budget, so every shard plan spawns the same
  // pods.
  std::vector<int> budget(platform_->profiles().size(), options_.max_prewarms_per_tick);
  for (const trace::FunctionId fid : watch_list_) {
    const trace::RegionId region = platform_->spec(fid).region;
    if (budget[region] <= 0) {
      continue;
    }
    // OnArrival precedes every cold start, so a watched function has a profile.
    const Profile* prof = profiles_.Find(fid);
    COLDSTART_CHECK(prof != nullptr);
    const double expected =
        prof->per_minute[static_cast<size_t>(next_minute)] / static_cast<double>(day);
    if (expected >= kMinExpectedArrivals && !platform_->HasAvailablePod(fid)) {
      platform_->SpawnPrewarmedPod(fid, region, kProfilePrewarmKeepAlive);
      ++prewarms_issued_;
      --budget[region];
    }
  }
}

bool ProfilePrewarmPolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.I64(prewarms_issued_);
  w.U64(watch_list_.size());
  for (const trace::FunctionId fid : watch_list_) {
    w.U64(fid);
  }
  profiles_.SaveEntries(w, [&w](const Profile& prof) {
    w.Raw(prof.per_minute.data(), prof.per_minute.size() * sizeof(float));
  });
  *out = w.Take();
  return true;
}

bool ProfilePrewarmPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(watch_list_.empty());
  ByteReader r(blob);
  prewarms_issued_ = r.I64();
  const uint64_t watched = r.U64();
  for (uint64_t i = 0; i < watched; ++i) {
    watch_list_.insert(static_cast<trace::FunctionId>(r.U64()));
  }
  profiles_.RestoreEntries(r, [&r](Profile& prof) {
    r.Raw(prof.per_minute.data(), prof.per_minute.size() * sizeof(float));
  });
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
