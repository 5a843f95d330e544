#include "policy/forecast.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace coldstart::policy {

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
  if (peak < static_cast<uint32_t>(options_.diurnal_min_count)) {
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

void InterArrivalForecaster::SaveState(ByteWriter& w) const {
  w.I64(last_arrival_);
  w.U64(next_);
  w.U64(filled_);
  for (const int64_t iat : ring_) {
    w.I64(iat);
  }
  for (const uint32_t c : hour_counts_) {
    w.U32(c);
  }
}

void InterArrivalForecaster::RestoreState(ByteReader& r) {
  last_arrival_ = r.I64();
  next_ = r.U64();
  filled_ = r.U64();
  COLDSTART_CHECK(filled_ <= ring_.size() && next_ < ring_.size());
  // ObserveArrival fills the ring front to back: until it is full, the write
  // cursor sits right after the last live sample.
  COLDSTART_CHECK(filled_ == ring_.size() || next_ == filled_);
  for (int64_t& iat : ring_) {
    iat = r.I64();
  }
  for (uint32_t& c : hour_counts_) {
    c = r.U32();
  }
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
  uint64_t h = HashString("forecast-options-v1");
  h = MixHash(h, static_cast<uint64_t>(forecaster.window));
  h = MixHash(h, static_cast<uint64_t>(forecaster.min_samples));
  h = MixHashDouble(h, forecaster.min_confidence);
  h = MixHash(h, static_cast<uint64_t>(forecaster.diurnal_min_count));
  h = MixHash(h, static_cast<uint64_t>(forecaster.diurnal_min_mean_iat));
  h = MixHash(h, static_cast<uint64_t>(prewarm_min_iat));
  h = MixHash(h, static_cast<uint64_t>(max_horizon));
  h = MixHash(h, static_cast<uint64_t>(lead_time));
  h = MixHash(h, static_cast<uint64_t>(post_fire_margin));
  h = MixHashDouble(h, keep_alive_headroom);
  h = MixHash(h, static_cast<uint64_t>(min_keep_alive));
  h = MixHash(h, static_cast<uint64_t>(max_keep_alive));
  h = MixHash(h, static_cast<uint64_t>(default_keep_alive));
  h = MixHash(h, use_diurnal ? 1 : 0);
  return h;
}

ForecastPrewarmPolicy::ForecastPrewarmPolicy()
    : ForecastPrewarmPolicy(Options{}) {}
ForecastPrewarmPolicy::ForecastPrewarmPolicy(Options options)
    : options_(options) {}

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
    if (iat > options_.prewarm_min_iat && iat <= options_.max_horizon) {
      fire = now + iat;
    }
    // Short IATs are handled by KeepAliveFor — the pod never goes cold.
  } else if (options_.use_diurnal &&
             (forecaster.sample_count() == 0 ||
              forecaster.MeanIat() >= options_.forecaster.diurnal_min_mean_iat)) {
    // Sparse-only: an unpredictable-but-busy function would waste most of its
    // "next active hour" prewarms; a sparse one (or one with no IAT samples
    // yet) is exactly what the hour profile is for.
    const SimTime t = forecaster.PredictDiurnalNext(now);
    if (t >= 0 && t - now > options_.prewarm_min_iat &&
        t - now <= options_.max_horizon) {
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
  // A fire at most one tick plus lead_time away is due: the next tick would be
  // too late for it. Due fires that already passed are stale (a miss); the
  // rest spawn, in function-id order so spawns never depend on fire order.
  const SimTime due_by = now + kMinute + options_.lead_time;
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
      // served warm, a miss dies post_fire_margin later.
      platform_->SpawnPrewarmedPod(fid, platform_->spec(fid).region,
                                   (fire - now) + options_.post_fire_margin);
      ++prewarms_issued_;
    }
  }
}

SimDuration ForecastPrewarmPolicy::KeepAliveFor(const workload::FunctionSpec& spec,
                                                SimTime) {
  const InterArrivalForecaster* forecaster = forecasters_.Find(spec.id);
  if (forecaster == nullptr || !forecaster->Confident()) {
    return options_.default_keep_alive;
  }
  const SimDuration iat = forecaster->PredictedIat();
  if (iat <= options_.prewarm_min_iat) {
    // Dynamic keep-alive move: cover the predicted gap with headroom. This
    // both extends (IAT slightly over the default window) and shrinks
    // (rapid-fire functions hold pods for far less than 60 s).
    const auto scaled = static_cast<SimDuration>(
        options_.keep_alive_headroom * static_cast<double>(iat));
    const SimDuration ka =
        std::clamp(scaled, options_.min_keep_alive, options_.max_keep_alive);
    if (ka > options_.default_keep_alive) {
      ++keepalive_extended_;
    } else {
      ++keepalive_curtailed_;
    }
    return ka;
  }
  // The next fire is beyond the prewarm threshold: a fresh pod will be
  // prewarmed just ahead of it, so holding this one warm is pure idle cost.
  ++keepalive_curtailed_;
  return options_.min_keep_alive;
}

void ForecastPrewarmPolicy::AbsorbShardStats(
    const platform::PlatformPolicy& shard) {
  const auto& other = static_cast<const ForecastPrewarmPolicy&>(shard);
  prewarms_issued_ += other.prewarms_issued_;
  keepalive_extended_ += other.keepalive_extended_;
  keepalive_curtailed_ += other.keepalive_curtailed_;
}

bool ForecastPrewarmPolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.I64(prewarms_issued_);
  w.I64(keepalive_extended_);
  w.I64(keepalive_curtailed_);
  w.U64(pending_.size());
  for (const auto& [fid, fire] : pending_) {
    w.U64(fid);
    w.I64(fire);
  }
  forecasters_.SaveEntries(
      w, [&w](const InterArrivalForecaster& f) { f.SaveState(w); });
  *out = w.Take();
  return true;
}

bool ForecastPrewarmPolicy::RestorePolicyState(std::string_view blob) {
  COLDSTART_CHECK(pending_.empty());
  ByteReader r(blob);
  prewarms_issued_ = r.I64();
  keepalive_extended_ = r.I64();
  keepalive_curtailed_ = r.I64();
  const uint64_t armed = r.U64();
  for (uint64_t i = 0; i < armed; ++i) {
    const auto fid = static_cast<trace::FunctionId>(r.U64());
    const SimTime fire = r.I64();
    pending_[fid] = fire;
    fires_.emplace(fire, fid);
  }
  forecasters_.RestoreEntries(
      r, [&r](InterArrivalForecaster& f) { f.RestoreState(r); },
      options_.forecaster);
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
