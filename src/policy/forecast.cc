#include "policy/forecast.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace coldstart::policy {

namespace {
// Arrivals the peak hour must hold before the diurnal fallback speaks.
constexpr uint32_t kDiurnalMinCount = 3;
// The diurnal fallback covers only sparse functions: window mean IAT at least
// this (or no IAT sample yet).
constexpr SimDuration kDiurnalMinMeanIat = kHour;
// Predicted IATs above this are prewarmed; at or below it, the keep-alive
// move covers them.
constexpr SimDuration kPrewarmMinIat = 3 * kMinute;
// A fire is due once it is at most one tick plus this away.
constexpr SimDuration kLeadTime = 5 * kSecond;
// A prewarmed pod survives this long past its predicted fire.
constexpr SimDuration kPostFireMargin = 10 * kSecond;
// Keep-alive move: headroom x predicted IAT, clamped to [min, max]. Confident
// long-IAT functions get the min: their next fire is prewarmed.
constexpr double kKeepAliveHeadroom = 1.25;
constexpr SimDuration kMinKeepAlive = 5 * kSecond;
constexpr SimDuration kMaxKeepAlive = 10 * kMinute;
}  // namespace

// --- InterArrivalForecaster. ------------------------------------------------

int InterArrivalForecaster::BucketOf(SimDuration iat) {
  const uint64_t us = iat > 0 ? static_cast<uint64_t>(iat) : 1;
  const int bucket = std::bit_width(us) - 1;  // floor(log2).
  return std::min(bucket, kNumBuckets - 1);
}

InterArrivalForecaster::InterArrivalForecaster(Options options)
    : options_(options) {
  COLDSTART_CHECK_GT(options_.window, 0);
  ring_.assign(static_cast<size_t>(options_.window), 0);
}

void InterArrivalForecaster::ObserveArrival(SimTime now) {
  hour_counts_[static_cast<size_t>(HourIndex(now) % 24)] += 1;
  if (last_arrival_ >= 0 && now > last_arrival_) {
    const SimDuration iat = now - last_arrival_;
    const int in = BucketOf(iat);
    bool rescan = false;
    if (filled_ == ring_.size()) {
      const int64_t old = ring_[next_];  // Evict.
      const int out = BucketOf(old);
      hist_[static_cast<size_t>(out)] -= 1;
      iat_sum_[static_cast<size_t>(out)] -= old;
      total_ -= old;
      // Only a shrinking modal bucket can hand the mode to another bucket.
      rescan = out == modal_ && out != in;
    } else {
      ++filled_;
    }
    ring_[next_] = iat;
    hist_[static_cast<size_t>(in)] += 1;
    iat_sum_[static_cast<size_t>(in)] += iat;
    total_ += iat;
    if (++next_ == ring_.size()) {
      next_ = 0;
    }
    if (rescan) {
      RescanModal();
    } else if (modal_ < 0 ||
               hist_[static_cast<size_t>(in)] > hist_[static_cast<size_t>(modal_)] ||
               (hist_[static_cast<size_t>(in)] == hist_[static_cast<size_t>(modal_)] &&
                in < modal_)) {
      modal_ = in;  // Ties resolve to the lowest bucket, as in RescanModal.
    }
  }
  last_arrival_ = now;
}

void InterArrivalForecaster::RescanModal() {
  int best = 0;
  for (int b = 1; b < kNumBuckets; ++b) {
    if (hist_[static_cast<size_t>(b)] > hist_[static_cast<size_t>(best)]) {
      best = b;  // Strict >: ties resolve to the lowest bucket.
    }
  }
  modal_ = filled_ == 0 ? -1 : best;
}

InterArrivalForecaster::Neighborhood InterArrivalForecaster::ModalNeighborhood()
    const {
  Neighborhood n;
  for (int b = std::max(0, modal_ - 1); b <= std::min(kNumBuckets - 1, modal_ + 1);
       ++b) {
    n.count += hist_[static_cast<size_t>(b)];
    n.sum += iat_sum_[static_cast<size_t>(b)];
  }
  return n;
}

double InterArrivalForecaster::Confidence() const {
  if (filled_ < static_cast<uint64_t>(options_.min_samples)) {
    return 0.0;
  }
  return static_cast<double>(ModalNeighborhood().count) /
         static_cast<double>(filled_);
}

bool InterArrivalForecaster::Confident() const {
  return Confidence() >= options_.min_confidence;
}

SimDuration InterArrivalForecaster::PredictedIat() const {
  if (filled_ < static_cast<uint64_t>(options_.min_samples)) {
    return 0;
  }
  // Exact integer mean of the window samples inside the modal neighborhood:
  // a trimmed mean that is exact for strict timers and immune to the stray
  // multi-hour gap that would wreck a plain average.
  const Neighborhood n = ModalNeighborhood();
  COLDSTART_CHECK_GT(n.count, 0u);
  return n.sum / static_cast<int64_t>(n.count);
}

SimDuration InterArrivalForecaster::MeanIat() const {
  if (filled_ == 0) {
    return 0;
  }
  return total_ / static_cast<int64_t>(filled_);
}

SimTime InterArrivalForecaster::PredictNextArrival() const {
  if (last_arrival_ < 0 || !Confident()) {
    return -1;
  }
  return last_arrival_ + PredictedIat();
}

SimTime InterArrivalForecaster::PredictDiurnalNext(SimTime now) const {
  uint32_t peak = 0;
  for (const uint32_t c : hour_counts_) {
    peak = std::max(peak, c);
  }
  if (peak < kDiurnalMinCount) {
    return -1;
  }
  const SimTime hour_start = now - (now % kHour);
  const int64_t now_hour = HourIndex(now) % 24;
  for (int64_t off = 1; off <= 24; ++off) {
    const auto hod = static_cast<size_t>((now_hour + off) % 24);
    if (hour_counts_[hod] * 2 >= peak) {
      return hour_start + off * kHour;
    }
  }
  return -1;
}

void InterArrivalForecaster::RebuildDerived() {
  COLDSTART_CHECK(filled_ <= ring_.size() && next_ < ring_.size());
  // ObserveArrival fills the ring front to back: until it is full, the write
  // cursor sits right after the last live sample.
  COLDSTART_CHECK(filled_ == ring_.size() || next_ == filled_);
  // Everything else is derived state: rebuild it from the restored window.
  // Slots [0, filled_) are exactly the live samples regardless of next_.
  // ObserveArrival records only positive IATs, and a sample past this bound
  // could overflow the window sums.
  const int64_t max_iat =
      std::numeric_limits<int64_t>::max() / static_cast<int64_t>(ring_.size());
  hist_.fill(0);
  iat_sum_.fill(0);
  total_ = 0;
  for (uint64_t i = 0; i < filled_; ++i) {
    const int64_t iat = ring_[i];
    COLDSTART_CHECK_GT(iat, 0);
    COLDSTART_CHECK_LE(iat, max_iat);
    const auto b = static_cast<size_t>(BucketOf(iat));
    hist_[b] += 1;
    iat_sum_[b] += iat;
    total_ += iat;
  }
  RescanModal();
}

// --- ForecastPrewarmPolicy. -------------------------------------------------

uint64_t ForecastPrewarmPolicy::Options::Fingerprint() const {
  uint64_t h = HashString("forecast-options-v2");
  h = MixHash(h, static_cast<uint64_t>(forecaster.window));
  h = MixHash(h, static_cast<uint64_t>(forecaster.min_samples));
  h = MixHashDouble(h, forecaster.min_confidence);
  h = MixHash(h, static_cast<uint64_t>(max_horizon));
  return h;
}

void ForecastPrewarmPolicy::OnArrival(const workload::FunctionSpec& spec,
                                      SimTime now) {
  InterArrivalForecaster& forecaster =
      forecasters_.Touch(spec.id, options_.forecaster);
  forecaster.ObserveArrival(now);

  // Re-arm (or disarm) this function's pending fire: every arrival refreshes
  // the prediction, and a stale fire anchored on an older arrival would spawn
  // a pod nobody asked for.
  SimTime fire = -1;
  if (forecaster.Confident()) {
    const SimDuration iat = forecaster.PredictedIat();
    if (iat > kPrewarmMinIat && iat <= options_.max_horizon) {
      fire = now + iat;
    }
    // Short IATs are handled by KeepAliveFor — the pod never goes cold.
  } else if (forecaster.sample_count() == 0 ||
             forecaster.MeanIat() >= kDiurnalMinMeanIat) {
    // Sparse-only: an unpredictable-but-busy function would waste most of its
    // "next active hour" prewarms; a sparse one (or one with no IAT samples
    // yet) is exactly what the hour profile is for.
    const SimTime t = forecaster.PredictDiurnalNext(now);
    if (t >= 0 && t - now > kPrewarmMinIat && t - now <= options_.max_horizon) {
      fire = t;
    }
  }
  // fires_ holds exactly pending_'s entries: a re-arm moves the function's
  // (fire, function) node to its new fire, a disarm drops it.
  const auto it = pending_.find(spec.id);
  if (it == pending_.end()) {
    if (fire >= 0) {
      pending_.emplace(spec.id, fire);
      fires_.emplace(fire, spec.id);
    }
    return;
  }
  auto node = fires_.extract({it->second, spec.id});
  if (fire < 0) {
    pending_.erase(it);
    return;
  }
  it->second = fire;
  node.value().first = fire;
  fires_.insert(std::move(node));
}

void ForecastPrewarmPolicy::OnMinuteTick(SimTime now) {
  COLDSTART_CHECK(platform_ != nullptr);
  // A fire at most one tick plus kLeadTime away is due: the next tick would be
  // too late for it. Due fires that already passed are stale (a miss); the
  // rest spawn, in function-id order so spawns never depend on fire order.
  const SimTime due_by = now + kMinute + kLeadTime;
  due_.clear();
  auto due_end = fires_.begin();
  for (; due_end != fires_.end() && due_end->first <= due_by; ++due_end) {
    due_.push_back(due_end->second);
  }
  fires_.erase(fires_.begin(), due_end);
  std::sort(due_.begin(), due_.end());
  for (const trace::FunctionId fid : due_) {
    const auto it = pending_.find(fid);
    const SimTime fire = it->second;
    pending_.erase(it);  // One shot (the served arrival re-arms), or stale.
    if (fire > now && !platform_->HasAvailablePod(fid)) {
      // Survive until just past the predicted fire; a correct prediction is
      // served warm, a miss dies kPostFireMargin later.
      platform_->SpawnPrewarmedPod(fid, platform_->spec(fid).region,
                                   (fire - now) + kPostFireMargin);
      ++prewarms_issued_;
    }
  }
}

SimDuration ForecastPrewarmPolicy::KeepAliveFor(const workload::FunctionSpec& spec,
                                                SimTime) {
  const InterArrivalForecaster* forecaster = forecasters_.Find(spec.id);
  if (forecaster == nullptr || !forecaster->Confident()) {
    return kDefaultKeepAlive;
  }
  const SimDuration iat = forecaster->PredictedIat();
  if (iat <= kPrewarmMinIat) {
    // Dynamic keep-alive move: cover the predicted gap with headroom. This
    // both extends (IAT slightly over the default window) and shrinks
    // (rapid-fire functions hold pods for far less than the default).
    const auto scaled =
        static_cast<SimDuration>(kKeepAliveHeadroom * static_cast<double>(iat));
    const SimDuration ka = std::clamp(scaled, kMinKeepAlive, kMaxKeepAlive);
    if (ka > platform_->default_keep_alive()) {
      ++keepalive_extended_;
    } else {
      ++keepalive_curtailed_;
    }
    return ka;
  }
  // The next fire is beyond the prewarm threshold: a fresh pod will be
  // prewarmed just ahead of it, so holding this one warm is pure idle cost.
  ++keepalive_curtailed_;
  return kMinKeepAlive;
}

void ForecastPrewarmPolicy::AbsorbShardStats(
    const platform::PlatformPolicy& shard) {
  const auto& other = static_cast<const ForecastPrewarmPolicy&>(shard);
  prewarms_issued_ += other.prewarms_issued_;
  keepalive_extended_ += other.keepalive_extended_;
  keepalive_curtailed_ += other.keepalive_curtailed_;
}

template <class Ar, class Self>
void ForecastPrewarmPolicy::Layout(Ar& a, Self& self) {
  a.I64(self.prewarms_issued_);
  a.I64(self.keepalive_extended_);
  a.I64(self.keepalive_curtailed_);
  std::vector<std::pair<trace::FunctionId, SimTime>> armed(self.pending_.begin(),
                                                           self.pending_.end());
  a.Count(armed, 8 + 8);
  for (auto& [fid, fire] : armed) {
    a.U64(fid);
    a.I64(fire);
  }
  if constexpr (Ar::kReading) {
    for (const auto& [fid, fire] : armed) {
      // Written from the map in fid order: a repeated fid would leave
      // pending_ and fires_ out of step.
      COLDSTART_CHECK(self.pending_.empty() || fid > self.pending_.rbegin()->first);
      self.pending_.emplace_hint(self.pending_.end(), fid, fire);
      self.fires_.emplace(fire, fid);
    }
  }
  FunctionTable<InterArrivalForecaster>::Layout(
      a, self.forecasters_, self.platform_,
      [&a](auto& f) { InterArrivalForecaster::Layout(a, f); }, self.options_.forecaster);
}

bool ForecastPrewarmPolicy::SavePolicyState(std::string* out) const {
  *out = SaveLayout(*this);
  return true;
}

bool ForecastPrewarmPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(pending_.empty());
  RestoreLayout(blob, *this);
  return true;
}

}  // namespace coldstart::policy
