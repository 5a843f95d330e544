#include "policy/predictors.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace coldstart::policy {

SeriesPredictor::SeriesPredictor(Kind kind, int length, double alpha, double beta,
                                 double gamma)
    : kind_(kind), alpha_(alpha), beta_(beta), gamma_(gamma) {
  COLDSTART_CHECK_GT(length, 0);
  ring_.assign(static_cast<size_t>(length), 0.0);
}

SeriesPredictor SeriesPredictor::ForPools(Kind kind) {
  return kind == Kind::kMovingAverage   ? MovingAverage(30)
         : kind == Kind::kSeasonalNaive ? SeasonalNaive(1440)
                                        : HoltWinters(1440, 0.3, 0.05, 0.15);
}

const char* SeriesPredictor::name() const {
  static constexpr const char* kNames[] = {"moving-average", "seasonal-naive",
                                           "holt-winters"};
  return kNames[static_cast<size_t>(kind_)];
}

void SeriesPredictor::Observe(double value) {
  double& slot = ring_[pos_];
  switch (kind_) {
    case Kind::kMovingAverage:
      level_ += value - slot;
      slot = value;
      break;
    case Kind::kSeasonalNaive:
      slot = value;
      level_ = value;
      break;
    case Kind::kHoltWinters: {
      if (observed_ == 0) {
        level_ = value;
      }
      const double s = slot;
      const double prev_level = level_;
      level_ = alpha_ * (value - s) + (1 - alpha_) * (level_ + trend_);
      trend_ = beta_ * (level_ - prev_level) + (1 - beta_) * trend_;
      slot = gamma_ * (value - level_) + (1 - gamma_) * s;
      break;
    }
  }
  pos_ = (pos_ + 1) % ring_.size();
  ++observed_;
  if (kind_ == Kind::kMovingAverage && pos_ == 0) {
    // Re-derive the running sum once per wraparound: the incremental update
    // accumulates floating-point drift over unbounded streams, and a fresh
    // sum every `window` observations keeps the error bounded by one pass.
    level_ = std::accumulate(ring_.begin(), ring_.end(), 0.0);
  }
}

double SeriesPredictor::Predict() const {
  switch (kind_) {
    case Kind::kMovingAverage: {
      const uint64_t filled = std::min<uint64_t>(observed_, ring_.size());
      return filled == 0 ? 0.0 : level_ / static_cast<double>(filled);
    }
    case Kind::kSeasonalNaive:
      // Until a full season has been seen, fall back to the last observation;
      // after that pos_ points at the slot from exactly one season ago.
      return observed_ < ring_.size() ? level_ : ring_[pos_];
    case Kind::kHoltWinters:
      return std::max(0.0, level_ + trend_ + ring_[pos_]);
  }
  return 0.0;
}

}  // namespace coldstart::policy
