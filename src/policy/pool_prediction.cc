#include "policy/pool_prediction.h"

#include <algorithm>
#include <cmath>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

namespace {
constexpr int kMinTarget = 1;
constexpr int kMaxTarget = 512;
}  // namespace

void PoolPredictionPolicy::OnAttach(platform::Platform& platform) {
  COLDSTART_CHECK(platform.cells_per_region() == 1 &&
                  "PoolPredictionPolicy sizes one pool per (region, config); "
                  "it cannot run with cells_per_region > 1");
  platform_ = &platform;
  const size_t n = platform.profiles().size() * trace::kNumResourceConfigs;
  predictors_.assign(n, SeriesPredictor::ForPools(options_.predictor));
  demand_this_minute_.assign(n, 0.0);
}

void PoolPredictionPolicy::OnColdStart(const workload::FunctionSpec& spec, SimTime,
                                       SimDuration) {
  COLDSTART_CHECK(platform_ != nullptr);
  demand_this_minute_[static_cast<size_t>(spec.region) * trace::kNumResourceConfigs +
                      static_cast<size_t>(spec.config)] += 1.0;
}

void PoolPredictionPolicy::OnMinuteTick(SimTime) {
  COLDSTART_CHECK(platform_ != nullptr);
  for (size_t i = 0; i < predictors_.size(); ++i) {
    SeriesPredictor& predictor = predictors_[i];
    predictor.Observe(demand_this_minute_[i]);
    demand_this_minute_[i] = 0.0;
    const int target = std::clamp(
        static_cast<int>(std::ceil(options_.headroom * predictor.Predict())),
        kMinTarget, kMaxTarget);
    platform_->pool(static_cast<trace::RegionId>(i / trace::kNumResourceConfigs),
                    static_cast<trace::ResourceConfig>(i % trace::kNumResourceConfigs))
        .SetTarget(target);
  }
}

bool PoolPredictionPolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.U64(predictors_.size());
  for (size_t i = 0; i < predictors_.size(); ++i) {
    predictors_[i].SaveState(w);
    // Cold starts since the last tick: pending at a day boundary.
    w.F64(demand_this_minute_[i]);
  }
  *out = w.Take();
  return true;
}

bool PoolPredictionPolicy::RestorePolicyState(std::string_view blob) {
  ByteReader r(blob);
  COLDSTART_CHECK_EQ(r.U64(), predictors_.size());
  for (size_t i = 0; i < predictors_.size(); ++i) {
    predictors_[i].RestoreState(r);
    demand_this_minute_[i] = r.F64();
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
