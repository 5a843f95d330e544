// Dedicated forecaster test suite: direct unit coverage for the three
// SeriesPredictor kinds (moving average, seasonal naive, Holt-Winters) and
// the inter-arrival forecaster's histogram/confidence math that
// ForecastPrewarmPolicy acts on. Complements the scenario-level checks in
// policy_test.cc with exact, input-controlled expectations: ring wraparound,
// partially-filled windows, sum drift over long streams, season boundaries,
// warm-up and fixed-point behavior, bucket geometry, confidence gating,
// bit-exact serde round trips, the forecaster's incremental statistics against
// a brute-force recomputation, and restore's rejection of inconsistent rings.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_serde.h"
#include "common/rng.h"
#include "policy/forecast.h"
#include "policy/predictors.h"

namespace coldstart::policy {
namespace {

// --- SeriesPredictor::MovingAverage. -----------------------------------------

TEST(MovingAveragePredictorTest, RingWraparoundEvictsOldest) {
  SeriesPredictor p = SeriesPredictor::MovingAverage(3);
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    p.Observe(v);
  }
  // Two full wraps: only {4, 5, 6} remain in the window.
  EXPECT_DOUBLE_EQ(p.Predict(), 5.0);
  p.Observe(9.0);  // Evicts the 4.
  EXPECT_DOUBLE_EQ(p.Predict(), (5.0 + 6.0 + 9.0) / 3.0);
}

TEST(MovingAveragePredictorTest, PartiallyFilledWindowAveragesOnlySeen) {
  SeriesPredictor p = SeriesPredictor::MovingAverage(8);
  double sum = 0;
  for (int i = 1; i <= 5; ++i) {
    p.Observe(static_cast<double>(i));
    sum += i;
    // The divisor is the number of observations, never the window size.
    EXPECT_DOUBLE_EQ(p.Predict(), sum / i);
  }
}

TEST(MovingAveragePredictorTest, SumDriftBoundedOverLongStreams) {
  // A long stream of awkward decimals: the incremental add/subtract update
  // would accumulate floating-point drift without the periodic re-derivation.
  // After a million observations the prediction must still match the exact
  // mean of the last `window` values to near machine precision.
  constexpr int kWindow = 32;
  constexpr int kStream = 1'000'000;
  SeriesPredictor p = SeriesPredictor::MovingAverage(kWindow);
  std::vector<double> tail(kWindow);
  for (int i = 0; i < kStream; ++i) {
    const double v = 0.1 * static_cast<double>(i % 7) + 0.0003;
    p.Observe(v);
    tail[static_cast<size_t>(i % kWindow)] = v;
  }
  double exact = 0;
  for (const double v : tail) {
    exact += v;
  }
  exact /= kWindow;
  EXPECT_NEAR(p.Predict(), exact, 1e-9);
}

TEST(MovingAveragePredictorTest, WindowOneTracksLastValue) {
  SeriesPredictor p = SeriesPredictor::MovingAverage(1);
  for (const double v : {3.5, -2.0, 100.0}) {
    p.Observe(v);
    EXPECT_DOUBLE_EQ(p.Predict(), v);
  }
}

// --- SeriesPredictor::SeasonalNaive. -----------------------------------------

TEST(SeasonalNaivePredictorTest, PreSeasonFallbackUsesLastObservation) {
  SeriesPredictor p = SeriesPredictor::SeasonalNaive(4);
  p.Observe(1.0);
  p.Observe(2.0);
  p.Observe(3.0);
  // Three of four season slots seen: still the last-value fallback.
  EXPECT_DOUBLE_EQ(p.Predict(), 3.0);
}

TEST(SeasonalNaivePredictorTest, ExactSeasonBoundarySwitchesToSeasonal) {
  SeriesPredictor p = SeriesPredictor::SeasonalNaive(4);
  for (const double v : {1.0, 2.0, 3.0, 4.0}) {
    p.Observe(v);
  }
  // The fourth observation completes the season: the very next prediction is
  // the same-phase value from one season ago, not the last observation.
  EXPECT_DOUBLE_EQ(p.Predict(), 1.0);
}

TEST(SeasonalNaivePredictorTest, TracksSeasonAcrossCycles) {
  SeriesPredictor p = SeriesPredictor::SeasonalNaive(3);
  const double cycle[] = {10.0, 20.0, 30.0};
  for (int i = 0; i < 9; ++i) {
    p.Observe(cycle[i % 3]);
  }
  // After three full cycles every prediction repeats the periodic pattern.
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(p.Predict(), cycle[i % 3]);
    p.Observe(cycle[i % 3]);
  }
}

// --- SeriesPredictor::HoltWinters. -------------------------------------------

TEST(HoltWintersPredictorTest, WarmUpMatchesFirstObservation) {
  SeriesPredictor p = SeriesPredictor::HoltWinters(4, 0.3, 0.05, 0.15);
  p.Observe(42.0);
  // Warm-up seeds level to the first value with zero trend and seasonality:
  // the one-observation prediction is exactly that value.
  EXPECT_DOUBLE_EQ(p.Predict(), 42.0);
}

TEST(HoltWintersPredictorTest, ConstantSeriesFixedPoint) {
  SeriesPredictor p = SeriesPredictor::HoltWinters(6, 0.3, 0.05, 0.15);
  for (int i = 0; i < 500; ++i) {
    p.Observe(5.0);
  }
  // A constant series is a fixed point: level converges to the constant,
  // trend and seasonal components decay to zero.
  EXPECT_NEAR(p.Predict(), 5.0, 1e-6);
  p.Observe(5.0);
  EXPECT_NEAR(p.Predict(), 5.0, 1e-6);
}

TEST(HoltWintersPredictorTest, TrendTrackingWithinTolerance) {
  SeriesPredictor p = SeriesPredictor::HoltWinters(4, 0.5, 0.3, 0.1);
  constexpr double kSlope = 3.0;
  int i = 0;
  for (; i < 300; ++i) {
    p.Observe(kSlope * i);
  }
  // The one-step-ahead forecast follows the ramp within a few slopes' error.
  EXPECT_NEAR(p.Predict(), kSlope * i, 5.0 * kSlope);
}

TEST(SeriesPredictorTest, NamesMatchKinds) {
  const std::pair<SeriesPredictor, const char*> cases[] = {
      {SeriesPredictor::MovingAverage(12), "moving-average"},
      {SeriesPredictor::SeasonalNaive(12), "seasonal-naive"},
      {SeriesPredictor::HoltWinters(12, 0.3, 0.05, 0.15), "holt-winters"}};
  for (const auto& [p, kind] : cases) {
    EXPECT_STREQ(p.name(), kind);
  }
}

// The pool policy's forecasters keep the parameters the abl05 figures were
// measured with: a 30-minute moving average, a one-day season, and
// Holt-Winters factors 0.3/0.05/0.15. Equal constructions observing the same
// series save the same bytes.
TEST(SeriesPredictorTest, ForPoolsUsesFixedParameters) {
  using Kind = SeriesPredictor::Kind;
  const std::pair<Kind, SeriesPredictor> cases[] = {
      {Kind::kMovingAverage, SeriesPredictor::MovingAverage(30)},
      {Kind::kSeasonalNaive, SeriesPredictor::SeasonalNaive(1440)},
      {Kind::kHoltWinters, SeriesPredictor::HoltWinters(1440, 0.3, 0.05, 0.15)}};
  for (const auto& [kind, expected] : cases) {
    SeriesPredictor p = SeriesPredictor::ForPools(kind);
    SeriesPredictor q = expected;
    SCOPED_TRACE(q.name());
    EXPECT_STREQ(p.name(), q.name());
    for (int i = 0; i < 100; ++i) {
      p.Observe(0.7 * (i % 13));
      q.Observe(0.7 * (i % 13));
    }
    EXPECT_EQ(SaveLayout(p), SaveLayout(q));
  }
}

// Save mid-season, restore onto a fresh predictor of the same construction, and
// keep observing both: every prediction must match bit for bit. The stream of
// awkward decimals makes the moving average's running sum differ in its low
// bits from a fresh sum over the ring, so a restore that re-derived it would
// drift.
TEST(SeriesPredictorTest, SaveMidSeasonRestoreIsBitIdentical) {
  constexpr int kSeason = 7;
  const SeriesPredictor kinds[] = {SeriesPredictor::MovingAverage(kSeason),
                                   SeriesPredictor::SeasonalNaive(kSeason),
                                   SeriesPredictor::HoltWinters(kSeason, 0.3, 0.05, 0.15)};
  const auto value = [](int i) { return 0.1 * static_cast<double>(i % 11) + 0.0003 * i; };
  for (const SeriesPredictor& fresh : kinds) {
    SCOPED_TRACE(fresh.name());
    SeriesPredictor p = fresh;
    int i = 0;
    for (; i < 3 * kSeason + 4; ++i) {  // Three seasons and four buckets in.
      p.Observe(value(i));
    }
    SeriesPredictor restored = fresh;
    RestoreLayout(SaveLayout(p), restored);  // CHECKs that every byte is read.
    for (; i < 6 * kSeason; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(restored.Predict()),
                std::bit_cast<uint64_t>(p.Predict()));
      p.Observe(value(i));
      restored.Observe(value(i));
    }
    EXPECT_EQ(SaveLayout(p), SaveLayout(restored));
  }
}

// --- InterArrivalForecaster: histogram and confidence math. ------------------

TEST(InterArrivalForecasterTest, BucketOfIsFloorLog2OfMicroseconds) {
  EXPECT_EQ(InterArrivalForecaster::BucketOf(1), 0);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(2), 1);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(3), 1);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(4), 2);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(1023), 9);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(1024), 10);
  // One second = 1e6 us: floor(log2) = 19.
  EXPECT_EQ(InterArrivalForecaster::BucketOf(kSecond), 19);
  // Non-positive IATs clamp into the lowest bucket instead of misindexing.
  EXPECT_EQ(InterArrivalForecaster::BucketOf(0), 0);
  // The largest representable IAT stays in range.
  EXPECT_LT(InterArrivalForecaster::BucketOf(INT64_MAX),
            InterArrivalForecaster::kNumBuckets);
}

TEST(InterArrivalForecasterTest, NoPredictionBelowMinSamples) {
  InterArrivalForecaster f;
  EXPECT_EQ(f.ModalBucket(), -1);
  EXPECT_DOUBLE_EQ(f.Confidence(), 0.0);
  EXPECT_FALSE(f.Confident());
  EXPECT_EQ(f.PredictedIat(), 0);
  EXPECT_EQ(f.PredictNextArrival(), -1);
  // Five IATs is one short of the default min_samples = 6 gate.
  SimTime t = 0;
  for (int i = 0; i < 6; ++i) {
    f.ObserveArrival(t);
    t += 5 * kMinute;
  }
  EXPECT_EQ(f.sample_count(), 5);
  EXPECT_DOUBLE_EQ(f.Confidence(), 0.0);
  EXPECT_EQ(f.PredictNextArrival(), -1);
}

TEST(InterArrivalForecasterTest, PeriodicSeriesFullConfidenceExactIat) {
  InterArrivalForecaster f;
  SimTime t = 0;
  for (int i = 0; i < 20; ++i) {
    f.ObserveArrival(t);
    t += 5 * kMinute;
  }
  // A strict timer concentrates all mass in one bucket; the trimmed mean over
  // identical integer samples is exact, not approximate.
  EXPECT_DOUBLE_EQ(f.Confidence(), 1.0);
  EXPECT_TRUE(f.Confident());
  EXPECT_EQ(f.PredictedIat(), 5 * kMinute);
  EXPECT_EQ(f.PredictNextArrival(), f.last_arrival() + 5 * kMinute);
}

TEST(InterArrivalForecasterTest, ZeroIatArrivalsAddNoSamples) {
  InterArrivalForecaster f;
  f.ObserveArrival(kMinute);
  f.ObserveArrival(kMinute);  // Concurrent duplicate: no inter-arrival gap.
  f.ObserveArrival(kMinute);
  EXPECT_EQ(f.sample_count(), 0);
  EXPECT_EQ(f.last_arrival(), kMinute);
}

TEST(InterArrivalForecasterTest, WindowEvictionKeepsHistogramConsistent) {
  InterArrivalForecaster::Options options;
  options.window = 8;
  InterArrivalForecaster f(options);
  SimTime t = 0;
  // Fill the window with 1-second IATs, then overwrite it entirely with
  // 100-second IATs: eviction must fully drain the old bucket's counts.
  for (int i = 0; i < 9; ++i) {
    f.ObserveArrival(t);
    t += kSecond;
  }
  for (int i = 0; i < 20; ++i) {
    f.ObserveArrival(t);
    t += 100 * kSecond;
  }
  EXPECT_EQ(f.sample_count(), 8);
  EXPECT_EQ(f.ModalBucket(), InterArrivalForecaster::BucketOf(100 * kSecond));
  EXPECT_DOUBLE_EQ(f.Confidence(), 1.0);
  EXPECT_EQ(f.PredictedIat(), 100 * kSecond);
}

TEST(InterArrivalForecasterTest, DispersedIatsFailConfidenceGate) {
  InterArrivalForecaster f;
  // IATs spread across octaves at least three log2 buckets apart: no modal
  // neighborhood can ever hold a majority, so the gate must stay closed.
  const SimDuration iats[] = {kSecond,        8 * kSecond,     64 * kSecond,
                              512 * kSecond,  4096 * kSecond,  32768 * kSecond};
  SimTime t = 0;
  f.ObserveArrival(t);
  for (int round = 0; round < 2; ++round) {
    for (const SimDuration iat : iats) {
      t += iat;
      f.ObserveArrival(t);
    }
  }
  EXPECT_EQ(f.sample_count(), 12);
  EXPECT_NEAR(f.Confidence(), 2.0 / 12.0, 1e-12);
  EXPECT_FALSE(f.Confident());
  EXPECT_EQ(f.PredictNextArrival(), -1);
}

TEST(InterArrivalForecasterTest, JitterTolerantPrediction) {
  InterArrivalForecaster f;
  // ~300 s period with +-10% deterministic jitter: every IAT lands in the
  // same log2 bucket, so confidence is full and the trimmed mean is the
  // exact integer mean of the jittered samples.
  const SimDuration jitter[] = {0, 17 * kSecond, -23 * kSecond, 9 * kSecond,
                                -12 * kSecond, 28 * kSecond, -5 * kSecond};
  SimTime t = 0;
  int64_t sum = 0;
  int64_t count = 0;
  f.ObserveArrival(t);
  for (int i = 0; i < 21; ++i) {
    const SimDuration iat = 300 * kSecond + jitter[i % 7];
    t += iat;
    f.ObserveArrival(t);
    sum += iat;
    ++count;
  }
  EXPECT_DOUBLE_EQ(f.Confidence(), 1.0);
  EXPECT_EQ(f.PredictedIat(), sum / count);
  EXPECT_NEAR(ToSeconds(f.PredictedIat()), 300.0, 30.0);
}

TEST(InterArrivalForecasterTest, DiurnalPredictsNextActiveHour) {
  InterArrivalForecaster f;
  // Four arrivals inside hour 9 of day 0, one stray at hour 13: hour 9 is the
  // peak; hour 13's count is under half the peak and must be skipped.
  for (int k = 0; k < 4; ++k) {
    f.ObserveArrival(9 * kHour + k * 10 * kMinute);
  }
  f.ObserveArrival(13 * kHour);
  // From 06:30 next day, the next active hour is 09:00 that day.
  EXPECT_EQ(f.PredictDiurnalNext(kDay + 6 * kHour + 30 * kMinute),
            kDay + 9 * kHour);
  // From 12:30, hour 13 (count 1 < peak/2) is skipped: the answer wraps all
  // the way to 09:00 the following day.
  EXPECT_EQ(f.PredictDiurnalNext(kDay + 12 * kHour + 30 * kMinute),
            2 * kDay + 9 * kHour);
}

TEST(InterArrivalForecasterTest, DiurnalRequiresMinPeakCount) {
  InterArrivalForecaster f;
  f.ObserveArrival(9 * kHour);
  f.ObserveArrival(9 * kHour + 10 * kMinute);
  // Peak hour holds two arrivals, below the 3 the fallback needs: too thin.
  EXPECT_EQ(f.PredictDiurnalNext(kDay), -1);
}

TEST(InterArrivalForecasterTest, SerdeRoundTripBitExact) {
  InterArrivalForecaster::Options options;
  options.window = 16;
  InterArrivalForecaster f(options);
  // Mixed stream that wraps the ring: serde must carry eviction state too.
  SimTime t = 0;
  for (int i = 0; i < 40; ++i) {
    t += (i % 5 + 1) * kMinute + i * kSecond;
    f.ObserveArrival(t);
  }
  const std::string saved = SaveLayout(f);

  InterArrivalForecaster restored(options);
  RestoreLayout(saved, restored);  // CHECKs that every byte is read.

  // Bit-exact: the same bytes come back out, and the derived histogram
  // answers agree exactly.
  EXPECT_EQ(saved, SaveLayout(restored));
  EXPECT_EQ(restored.sample_count(), f.sample_count());
  EXPECT_EQ(restored.ModalBucket(), f.ModalBucket());
  EXPECT_DOUBLE_EQ(restored.Confidence(), f.Confidence());
  EXPECT_EQ(restored.PredictedIat(), f.PredictedIat());

  // And the two instances evolve identically after the round trip.
  for (int i = 0; i < 10; ++i) {
    t += 3 * kMinute;
    f.ObserveArrival(t);
    restored.ObserveArrival(t);
  }
  EXPECT_EQ(SaveLayout(f), SaveLayout(restored));
}

// --- InterArrivalForecaster: incremental statistics vs brute force. ----------

// The forecaster's window, kept as a plain queue and queried by rescanning it:
// every answer is recomputed from the samples, with no running statistics.
class ReferenceWindow {
 public:
  ReferenceWindow(size_t window, int min_samples)
      : window_(window), min_samples_(static_cast<size_t>(min_samples)) {}

  // Returns true when the new sample evicted one from the modal bucket and
  // landed in another bucket: the forecaster's rescan path.
  bool Observe(SimTime now) {
    bool modal_eviction = false;
    if (last_ >= 0 && now > last_) {
      const SimDuration iat = now - last_;
      if (samples_.size() == window_) {
        const int out = InterArrivalForecaster::BucketOf(samples_.front());
        modal_eviction =
            out == Modal() && out != InterArrivalForecaster::BucketOf(iat);
        samples_.pop_front();
      }
      samples_.push_back(iat);
    }
    last_ = now;
    return modal_eviction;
  }

  std::array<uint32_t, InterArrivalForecaster::kNumBuckets> Hist() const {
    std::array<uint32_t, InterArrivalForecaster::kNumBuckets> hist{};
    for (const int64_t iat : samples_) {
      hist[static_cast<size_t>(InterArrivalForecaster::BucketOf(iat))] += 1;
    }
    return hist;
  }

  int Modal() const {
    if (samples_.empty()) {
      return -1;
    }
    const auto hist = Hist();
    return static_cast<int>(std::max_element(hist.begin(), hist.end()) - hist.begin());
  }

  // True when another bucket holds as many samples as the modal one.
  bool ModalTied() const {
    const auto hist = Hist();
    const int modal = Modal();
    return modal >= 0 && std::count(hist.begin(), hist.end(),
                                    hist[static_cast<size_t>(modal)]) > 1;
  }

  double Confidence() const {
    if (samples_.size() < min_samples_) {
      return 0.0;
    }
    return static_cast<double>(InNeighborhood().size()) /
           static_cast<double>(samples_.size());
  }

  SimDuration PredictedIat() const {
    if (samples_.size() < min_samples_) {
      return 0;
    }
    const std::vector<int64_t> near = InNeighborhood();
    int64_t sum = 0;
    for (const int64_t iat : near) {
      sum += iat;
    }
    return sum / static_cast<int64_t>(near.size());
  }

  SimDuration MeanIat() const {
    if (samples_.empty()) {
      return 0;
    }
    int64_t sum = 0;
    for (const int64_t iat : samples_) {
      sum += iat;
    }
    return sum / static_cast<int64_t>(samples_.size());
  }

  size_t size() const { return samples_.size(); }

 private:
  std::vector<int64_t> InNeighborhood() const {
    const int modal = Modal();
    std::vector<int64_t> near;
    for (const int64_t iat : samples_) {
      const int b = InterArrivalForecaster::BucketOf(iat);
      if (b >= modal - 1 && b <= modal + 1) {
        near.push_back(iat);
      }
    }
    return near;
  }

  size_t window_;
  size_t min_samples_;
  SimTime last_ = -1;
  std::deque<int64_t> samples_;  // Oldest first.
};

void ExpectMatchesReference(const InterArrivalForecaster& f,
                            const ReferenceWindow& ref) {
  EXPECT_EQ(static_cast<size_t>(f.sample_count()), ref.size());
  EXPECT_EQ(f.ModalBucket(), ref.Modal());
  // Exact: both sides divide the same two integers.
  EXPECT_EQ(std::bit_cast<uint64_t>(f.Confidence()),
            std::bit_cast<uint64_t>(ref.Confidence()));
  EXPECT_EQ(f.PredictedIat(), ref.PredictedIat());
  EXPECT_EQ(f.MeanIat(), ref.MeanIat());
}

InterArrivalForecaster SaveAndRestore(const InterArrivalForecaster& f,
                                      const InterArrivalForecaster::Options& options) {
  const std::string saved = SaveLayout(f);
  InterArrivalForecaster restored(options);
  RestoreLayout(saved, restored);  // CHECKs that every byte is read.
  EXPECT_EQ(saved, SaveLayout(restored));
  return restored;
}

TEST(InterArrivalForecasterTest, IncrementalStatisticsMatchBruteForce) {
  for (const int window : {1, 2, 48}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("window " + std::to_string(window) + " seed " +
                   std::to_string(seed));
      InterArrivalForecaster::Options options;
      options.window = window;
      options.min_samples = std::min(window, 3);
      InterArrivalForecaster f(options);
      ReferenceWindow ref(static_cast<size_t>(window), options.min_samples);
      Rng rng(seed);
      int modal_evictions = 0;
      int ties = 0;
      int zero_iats = 0;
      SimTime t = 0;
      for (int step = 0; step < 1500; ++step) {
        // Phases of 150 arrivals drift between a few adjacent buckets, so the
        // mode migrates (evictions from the modal bucket) and counts tie;
        // one arrival in ten repeats the previous time (a zero IAT, which
        // records no sample), and the odd multi-hour gap lands far out.
        const int base = 14 + (step / 150) % 4;
        const uint64_t roll = rng.NextBounded(20);
        if (roll < 2 && step > 0) {
          ++zero_iats;
        } else if (roll == 2) {
          t += 3 * kHour + static_cast<SimDuration>(rng.NextBounded(kHour));
        } else {
          const int b = base + static_cast<int>(rng.NextBounded(3));
          const int64_t lo = int64_t{1} << b;
          t += lo + static_cast<SimDuration>(rng.NextBounded(static_cast<uint64_t>(lo)));
        }
        f.ObserveArrival(t);
        modal_evictions += ref.Observe(t) ? 1 : 0;
        ties += ref.ModalTied() ? 1 : 0;
        if (step % 211 == 105) {
          f = SaveAndRestore(f, options);  // Mid-sequence checkpoint.
        }
        ExpectMatchesReference(f, ref);
        if (::testing::Test::HasFailure()) {
          return;
        }
      }
      EXPECT_GT(zero_iats, 0);
      if (window > 1) {
        // The sequences reach the paths the incremental update special-cases.
        EXPECT_GT(modal_evictions, 0);
        EXPECT_GT(ties, 0);
      }
    }
  }
}

// --- InterArrivalForecaster: restore rejects inconsistent rings. --------------

// A forecaster state blob in its Layout, written by hand.
std::string ForecasterBlob(uint64_t next, uint64_t filled,
                           const std::vector<int64_t>& ring) {
  ByteWriter w;
  w.I64(kHour);  // last_arrival
  w.U64(next);
  w.U64(filled);
  for (const int64_t iat : ring) {
    w.I64(iat);
  }
  for (int h = 0; h < 24; ++h) {
    w.U32(0);
  }
  return w.Take();
}

void Restore(const std::string& blob) {
  InterArrivalForecaster::Options options;
  options.window = 4;
  options.min_samples = 1;
  InterArrivalForecaster f(options);
  RestoreLayout(blob, f);
}

TEST(InterArrivalForecasterTest, RestoreLoadsConsistentRing) {
  InterArrivalForecaster::Options options;
  options.window = 4;
  options.min_samples = 1;
  InterArrivalForecaster f(options);
  const std::string blob =
      ForecasterBlob(2, 2, {5 * kSecond, 7 * kSecond, 0, 0});
  RestoreLayout(blob, f);
  EXPECT_EQ(f.sample_count(), 2);
  EXPECT_EQ(f.MeanIat(), 6 * kSecond);
  EXPECT_EQ(f.PredictedIat(), 6 * kSecond);
}

TEST(InterArrivalForecasterDeathTest, RestoreRejectsPartialRingWithStrayCursor) {
  // Two live samples, so the cursor must sit at slot 2.
  EXPECT_DEATH(Restore(ForecasterBlob(3, 2, {kSecond, kSecond, 0, 0})),
               "next_ == filled_");
  EXPECT_DEATH(Restore(ForecasterBlob(0, 2, {kSecond, kSecond, 0, 0})),
               "next_ == filled_");
}

TEST(InterArrivalForecasterDeathTest, RestoreRejectsNonPositiveLiveSample) {
  EXPECT_DEATH(Restore(ForecasterBlob(2, 2, {kSecond, 0, 0, 0})),
               "\\(iat\\) > \\(0\\)");
  EXPECT_DEATH(Restore(ForecasterBlob(1, 4, {kSecond, kSecond, -kSecond, kSecond})),
               "\\(iat\\) > \\(0\\)");
}

TEST(InterArrivalForecasterDeathTest, RestoreRejectsSampleThatOverflowsWindowSum) {
  // Four samples of this size would overflow the int64 window total.
  const int64_t huge = INT64_MAX / 2;
  EXPECT_DEATH(Restore(ForecasterBlob(0, 4, {huge, huge, huge, huge})),
               "\\(iat\\) <= \\(max_iat\\)");
}

}  // namespace
}  // namespace coldstart::policy
