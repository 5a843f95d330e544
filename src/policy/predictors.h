// Time-series predictors for resource-pool sizing (§5 "Resource pool prediction").
//
// Small online forecasters over per-minute demand series. All of them observe one
// value per bucket and answer "how much will the next bucket need"; the pool policy
// translates that into pool targets.
#ifndef COLDSTART_POLICY_PREDICTORS_H_
#define COLDSTART_POLICY_PREDICTORS_H_

#include <cstdint>
#include <vector>

#include "common/byte_serde.h"

namespace coldstart::policy {

// One forecaster value: a kind plus the state all three kinds share — a ring,
// its position, an observation count and two scalars.
class SeriesPredictor {
 public:
  enum class Kind : uint8_t { kMovingAverage, kSeasonalNaive, kHoltWinters };

  // Flat moving average over the last `window` observations.
  static SeriesPredictor MovingAverage(int window) {
    return SeriesPredictor(Kind::kMovingAverage, window);
  }
  // Same bucket one season ago (e.g. the same minute yesterday); falls back to the
  // last observation until a full season has been seen.
  static SeriesPredictor SeasonalNaive(int season) {
    return SeriesPredictor(Kind::kSeasonalNaive, season);
  }
  // Additive Holt-Winters with a daily season: level + trend + seasonal index.
  static SeriesPredictor HoltWinters(int season, double alpha, double beta, double gamma) {
    return SeriesPredictor(Kind::kHoltWinters, season, alpha, beta, gamma);
  }
  // The pool policy's per-minute forecaster: a 30-minute window or a one-day season.
  static SeriesPredictor ForPools(Kind kind);

  void Observe(double value);
  double Predict() const;
  const char* name() const;

  // Checkpoint layout (common/byte_serde.h): the learned state, every double
  // by bit pattern. Restore onto an identically constructed predictor (kind
  // and ring length CHECKed).
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self) {
    Kind kind = self.kind_;
    a.U8(kind);
    COLDSTART_CHECK(kind == self.kind_);
    uint64_t length = self.ring_.size();
    a.U64(length);
    COLDSTART_CHECK_EQ(length, self.ring_.size());
    a.Raw(self.ring_.data(), self.ring_.size() * sizeof(double));
    a.U64(self.pos_);
    COLDSTART_CHECK_LT(self.pos_, self.ring_.size());
    a.U64(self.observed_);
    // Saved, never re-derived: a mid-window moving-average sum differs in its
    // low bits from a fresh sum over the ring.
    a.F64(self.level_);
    a.F64(self.trend_);
  }

 private:
  SeriesPredictor(Kind kind, int length, double alpha = 0, double beta = 0,
                  double gamma = 0);

  Kind kind_;
  double alpha_, beta_, gamma_;  // Holt-Winters smoothing factors.
  // Moving average: the window. Seasonal naive: the last season. Holt-Winters:
  // the seasonal indices.
  std::vector<double> ring_;
  size_t pos_ = 0;
  uint64_t observed_ = 0;
  // Moving average: the running window sum. Seasonal naive: the last
  // observation. Holt-Winters: the level.
  double level_ = 0;
  double trend_ = 0;  // Holt-Winters only.
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_PREDICTORS_H_
