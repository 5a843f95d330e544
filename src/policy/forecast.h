// Forecasting prewarm (SPES-style, arXiv 2403.17574): predict each function's
// next invocation from its own invocation history and act ahead of it.
//
// InterArrivalForecaster is the per-function estimator: a sliding window of
// recent inter-arrival times bucketed into a log2 histogram. When the
// histogram mass concentrates around one modal bucket the function is
// *predictable* (timers, steady drips) and the trimmed mean of the modal
// neighborhood is the next-IAT estimate; dispersed (Poisson-like) histograms
// fail the confidence gate and the policy leaves the function alone. A
// 24-bin hour-of-day profile adds a coarse diurnal fallback for sparse
// functions whose IATs never concentrate but whose *active hours* do.
//
// The policy queries a forecaster on every arrival and every idle-pod
// keep-alive decision, so every query is O(1): beside the per-bucket counts
// the forecaster keeps per-bucket IAT sums, the window total and the modal
// bucket, all updated by ObserveArrival (which rescans the 64 buckets only
// when an eviction shrinks the modal bucket). These fields are derived
// state: exact integer functions of the ring, rebuilt from it on restore, so
// the serialized state is the ring and the hour profile alone and the policy
// blob carries no byte of them.
//
// ForecastPrewarmPolicy turns predictions into mitigation, choosing per
// function between two moves:
//   - predicted IAT over 3 min, up to max_horizon -> prewarm: arm a pending
//     fire time and spawn a short-lived pod from the minute tick just ahead
//     of it (and release served pods after a minimal keep-alive — the pod
//     for the *next* fire will be prewarmed, so holding this one is waste);
//   - predicted IAT short -> extend (or shrink) keep-alive to 1.25 x IAT,
//     the dynamic keep-alive move, but gated on forecast confidence.
// A function the forecaster is not confident about keeps the platform's
// default keep-alive; if it is sparse (window mean IAT of an hour or more, or
// no IAT yet) the hour-of-day profile may still arm a prewarm. A busy but
// bursty function is left alone: most "next active hour" prewarms would idle
// out unused.
//
// Pending prewarms live in an ordered map, so the whole learned state
// serializes (policy_hooks.h contract (c)); a min-heap of fire times beside it
// lets the minute tick visit only the fires it can act on. Timer prewarm
// instead arms Platform::SpawnPrewarmedPodAt, exactly lead_time early.
#ifndef COLDSTART_POLICY_FORECAST_H_
#define COLDSTART_POLICY_FORECAST_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/byte_serde.h"
#include "platform/platform.h"
#include "policy/function_table.h"

namespace coldstart::policy {

// Sliding-window inter-arrival histogram + diurnal profile for one function.
// Pure observation state: no platform access, deterministic, serializable.
class InterArrivalForecaster {
 public:
  struct Options {
    int window = 48;              // IAT samples retained.
    int min_samples = 6;          // Below this no prediction is offered.
    double min_confidence = 0.7;  // Modal-neighborhood mass share to act on.
  };

  // Log2 buckets over IAT microseconds: bucket = floor(log2(iat_us)),
  // clamped. 64 buckets cover every representable IAT.
  static constexpr int kNumBuckets = 64;
  static int BucketOf(SimDuration iat);

  InterArrivalForecaster() : InterArrivalForecaster(Options{}) {}
  explicit InterArrivalForecaster(Options options);

  void ObserveArrival(SimTime now);

  int sample_count() const { return static_cast<int>(filled_); }
  SimTime last_arrival() const { return last_arrival_; }

  // Index of the fullest histogram bucket (ties -> lowest bucket, so the
  // answer never depends on evaluation order); -1 with no samples.
  int ModalBucket() const { return modal_; }
  // Share of window samples inside the modal bucket +-1. 0 below min_samples.
  double Confidence() const;
  bool Confident() const;
  // Trimmed mean (exact integer mean of window samples inside the modal
  // neighborhood) — exact for strict timers, robust to stray outliers.
  // 0 when below min_samples.
  SimDuration PredictedIat() const;
  // Untrimmed mean over the whole window — the sparsity signal for the
  // diurnal gate. 0 with no samples.
  SimDuration MeanIat() const;
  // last_arrival + PredictedIat when confident, else -1.
  SimTime PredictNextArrival() const;
  // Diurnal fallback: the start of the next hour-of-day whose historical
  // arrival count is at least half the peak hour's (the peak hour must hold at
  // least 3 arrivals); -1 when the profile is too thin.
  SimTime PredictDiurnalNext(SimTime now) const;

  // Checkpoint layout (common/byte_serde.h): the ring and profile travel; the
  // histogram, bucket sums, window total and modal bucket are derived state,
  // rebuilt from the ring on restore. Round trips are bit-exact. Restore
  // CHECK-fails on a ring that this class could not have produced: a partly
  // filled ring whose write cursor is not at its end, a live sample <= 0, or
  // one so large that the window's sum could overflow.
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self) {
    a.I64(self.last_arrival_);
    a.U64(self.next_);
    a.U64(self.filled_);
    for (auto& iat : self.ring_) {
      a.I64(iat);
    }
    for (auto& c : self.hour_counts_) {
      a.U32(c);
    }
    if constexpr (Ar::kReading) {
      self.RebuildDerived();
    }
  }

 private:
  // Checks a restored window and rebuilds the derived state from it.
  void RebuildDerived();
  // Window samples in buckets [modal - 1, modal + 1] and their IAT sum.
  struct Neighborhood {
    uint64_t count = 0;
    int64_t sum = 0;
  };
  Neighborhood ModalNeighborhood() const;
  void RescanModal();

  Options options_;
  SimTime last_arrival_ = -1;
  std::vector<int64_t> ring_;  // IAT microseconds, circular.
  uint64_t next_ = 0;
  uint64_t filled_ = 0;
  std::array<uint32_t, 24> hour_counts_{};  // All-history arrivals per hour.
  // Derived from ring_[0, filled_): never serialized.
  std::array<uint32_t, kNumBuckets> hist_{};     // Sample counts per bucket.
  std::array<int64_t, kNumBuckets> iat_sum_{};   // Sample IAT sums per bucket.
  int64_t total_ = 0;                            // Sum of all window samples.
  int modal_ = -1;                               // Fullest bucket, lowest on ties.
};

class ForecastPrewarmPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    InterArrivalForecaster::Options forecaster;
    // Prewarm move: arm when the predicted IAT is over 3 min and at most
    // max_horizon. The default horizon is deliberately short: prediction error
    // grows with distance, and long-horizon prewarms mostly idle out unused — a
    // 30 min cap is what keeps the policy's ledger cost at or under the fixed
    // keep-alive baseline (tests/forecast_policy_test.cc). Sweeps that want the
    // latency-greedy end of the frontier raise it explicitly
    // (core::ShippedFrontierCandidates).
    SimDuration max_horizon = 30 * kMinute;

    // Stable hash of every knob (fingerprint-style, doubles by bit pattern):
    // keys frontier point caches so a config change can never serve a stale
    // cached evaluation (core/frontier.h).
    uint64_t Fingerprint() const;
  };

  ForecastPrewarmPolicy() : ForecastPrewarmPolicy(Options{}) {}
  explicit ForecastPrewarmPolicy(Options options) : options_(options) {}

  void OnAttach(platform::Platform& platform) override { platform_ = &platform; }
  void OnArrival(const workload::FunctionSpec& spec, SimTime now) override;
  void OnMinuteTick(SimTime now) override;
  SimDuration KeepAliveFor(const workload::FunctionSpec& spec, SimTime now) override;

  // Per-function forecasters and pending fires only — no pools, no region
  // budget — so capacity-cell shards see identical inputs.
  bool is_function_local() const override { return true; }
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<ForecastPrewarmPolicy>(options_);
  }
  void AbsorbShardStats(const platform::PlatformPolicy& shard) override;

  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;
  // The blob's layout (common/byte_serde.h).
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

  const Options& options() const { return options_; }
  int64_t prewarms_issued() const { return prewarms_issued_; }
  // Keep-alive answers above / at or below Platform::default_keep_alive(), one
  // per KeepAliveFor call that does not answer kDefaultKeepAlive: at most one
  // per bound request that ends last on its pod.
  int64_t keepalive_extended() const { return keepalive_extended_; }
  int64_t keepalive_curtailed() const { return keepalive_curtailed_; }
  int64_t tracked_functions() const {
    return static_cast<int64_t>(forecasters_.size());
  }

 private:
  Options options_;
  platform::Platform* platform_ = nullptr;
  FunctionTable<InterArrivalForecaster> forecasters_;
  // Predicted next fire per armed function. Ordered, so the blob lists it by
  // function id.
  std::map<trace::FunctionId, SimTime> pending_;
  // pending_'s entries as (fire, function), kept in step with it: a tick takes
  // the fires due by then from the front instead of walking pending_. Derived
  // state: rebuilt from pending_ on restore.
  std::set<std::pair<SimTime, trace::FunctionId>> fires_;
  std::vector<trace::FunctionId> due_;  // OnMinuteTick scratch.
  int64_t prewarms_issued_ = 0;
  int64_t keepalive_extended_ = 0;
  int64_t keepalive_curtailed_ = 0;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_FORECAST_H_
