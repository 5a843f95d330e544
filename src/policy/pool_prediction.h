// Predictive resource-pool sizing (§5 "Resource pool prediction").
//
// Observes per-(region, config) pod-start demand each minute and retargets the
// inactive-pod pools with a forecaster, instead of the static targets of the baseline:
// "directly predicts required resources" rather than predicting invocations first.
#ifndef COLDSTART_POLICY_POOL_PREDICTION_H_
#define COLDSTART_POLICY_POOL_PREDICTION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.h"
#include "policy/predictors.h"

namespace coldstart::policy {

class PoolPredictionPolicy : public platform::PlatformPolicy {
 public:
  struct Options {
    // Every (region, config) pool's forecaster: SeriesPredictor::ForPools(predictor).
    SeriesPredictor::Kind predictor = SeriesPredictor::Kind::kSeasonalNaive;
    double headroom = 1.5;  // Pool target = headroom x prediction, in [1, 512].
  };

  PoolPredictionPolicy() : PoolPredictionPolicy(Options{}) {}
  explicit PoolPredictionPolicy(Options options) : options_(options) {}

  // Dies unless cells_per_region == 1: the policy sizes the one pool per
  // (region, config) that only that geometry has.
  void OnAttach(platform::Platform& platform) override;
  void OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                   SimDuration total) override;
  void OnMinuteTick(SimTime now) override;

  // The predictors and this minute's demand so far. Pool targets ride the
  // platform's own checkpoint.
  bool SavePolicyState(std::string* out) const override;
  bool RestorePolicyState(std::string_view blob) override;
  // The blob's layout (common/byte_serde.h).
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self);

  // One predictor per (region, config) with no cross-region coupling: shards cleanly.
  std::unique_ptr<platform::PlatformPolicy> CloneForShard() const override {
    return std::make_unique<PoolPredictionPolicy>(options_);
  }

 private:
  Options options_;
  platform::Platform* platform_ = nullptr;
  std::vector<SeriesPredictor> predictors_;  // [region x config].
  std::vector<double> demand_this_minute_;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_POOL_PREDICTION_H_
