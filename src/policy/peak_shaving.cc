#include "policy/peak_shaving.h"

#include "common/byte_serde.h"
#include "common/check.h"
#include "common/rng.h"

namespace coldstart::policy {

namespace {
// Recent-window cold starts (RegionLoadState::cold_start_window) at which the
// region counts as under pressure.
constexpr double kColdStartPressureThreshold = 30;

// Deadline-insensitive triggers: object-storage and log (LTS / CTS) events,
// per §3.3, and the stream and message triggers.
bool Delayable(trace::Trigger t) {
  using enum trace::Trigger;
  return t == kObs || t == kLts || t == kCts || t == kDis || t == kSmn || t == kKafka;
}
}  // namespace

uint64_t& PeakShavingPolicy::MixFor(trace::RegionId region) {
  while (mix_.size() <= region) {
    mix_.push_back(MixHash(0x9E3779B97F4A7C15ull, mix_.size()));
  }
  return mix_[region];
}

SimDuration PeakShavingPolicy::AdmissionDelay(const workload::FunctionSpec& spec,
                                              SimTime,
                                              const platform::RegionLoadState& load) {
  if (!Delayable(spec.primary_trigger)) {
    return 0;
  }
  if (load.cold_start_window < kColdStartPressureThreshold) {
    return 0;
  }
  ++delays_issued_;
  // Spread admissions uniformly over (0, max_delay] so the shaved peak does not simply
  // reappear max_delay later. One jitter stream per region keeps the sequence a
  // region observes independent of the other regions' traffic.
  const double u = static_cast<double>(SplitMix64(MixFor(spec.region)) >> 11) * 0x1.0p-53;
  return 1 + static_cast<SimDuration>(u * static_cast<double>(options_.max_delay));
}

bool PeakShavingPolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.I64(delays_issued_);
  w.U64(mix_.size());
  for (const uint64_t m : mix_) {
    w.U64(m);
  }
  *out = w.Take();
  return true;
}

bool PeakShavingPolicy::RestorePolicyState(std::string_view blob) {
  ByteReader r(blob);
  delays_issued_ = r.I64();
  mix_.clear();
  const uint64_t n = r.U64();
  mix_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    mix_.push_back(r.U64());
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
