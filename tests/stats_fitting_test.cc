// Tests for MLE fitting and goodness-of-fit (the Figure 10 machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/ecdf.h"
#include "stats/fitting.h"

namespace coldstart::stats {
namespace {

class LogNormalFitTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LogNormalFitTest, RecoversParameters) {
  const auto [mu, sigma] = GetParam();
  const LogNormalParams truth{mu, sigma};
  Rng rng(777);
  std::vector<double> samples(50000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  const LogNormalParams fit = FitLogNormalMle(samples);
  EXPECT_NEAR(fit.mu, mu, 0.02);
  EXPECT_NEAR(fit.sigma, sigma, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LogNormalFitTest,
                         ::testing::Values(std::pair{0.0, 1.0}, std::pair{1.2, 0.4},
                                           std::pair{-0.5, 1.8}, std::pair{2.0, 0.9}));

class WeibullFitTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(WeibullFitTest, RecoversParameters) {
  const auto [k, lambda] = GetParam();
  const WeibullParams truth{k, lambda};
  Rng rng(888);
  std::vector<double> samples(50000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  const WeibullParams fit = FitWeibullMle(samples);
  EXPECT_NEAR(fit.shape, k, k * 0.03);
  EXPECT_NEAR(fit.scale, lambda, lambda * 0.03);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WeibullFitTest,
                         ::testing::Values(std::pair{0.5, 1.0}, std::pair{0.744, 4.0},
                                           std::pair{1.3, 2.5}, std::pair{2.5, 0.8}));

TEST(FitQualityTest, CorrectModelHasSmallKs) {
  const LogNormalParams truth{0.5, 1.0};
  Rng rng(99);
  std::vector<double> samples(20000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  const LogNormalParams fit = FitLogNormalMle(samples);
  EXPECT_LT(EvaluateLogNormalFit(samples, fit).ks_distance, 0.02);
}

TEST(FitQualityTest, WrongModelHasLargerKs) {
  // Samples from a heavy LogNormal; a Weibull fit should be visibly worse.
  const LogNormalParams truth{0.0, 1.8};
  Rng rng(101);
  std::vector<double> samples(20000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  const double ks_right =
      EvaluateLogNormalFit(samples, FitLogNormalMle(samples)).ks_distance;
  const double ks_wrong = EvaluateWeibullFit(samples, FitWeibullMle(samples)).ks_distance;
  EXPECT_LT(ks_right, ks_wrong);
}

TEST(FitQualityTest, LogLikelihoodPrefersTrueModel) {
  const WeibullParams truth{0.8, 2.0};
  Rng rng(103);
  std::vector<double> samples(20000);
  for (auto& x : samples) {
    x = truth.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  const auto wq = EvaluateWeibullFit(samples, FitWeibullMle(samples));
  const auto lq = EvaluateLogNormalFit(samples, FitLogNormalMle(samples));
  EXPECT_GT(wq.log_likelihood, lq.log_likelihood);
}

TEST(KsDistanceTest, PerfectFitOnQuantiles) {
  // Samples placed exactly at quantile midpoints -> K-S bounded by 1/n.
  const LogNormalParams p{0.0, 1.0};
  std::vector<double> samples;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    samples.push_back(p.Quantile((i + 0.5) / n));
  }
  EXPECT_LE(KsDistance(samples, p), 1.0 / n + 1e-9);
}

TEST(EcdfTest, QuantileInterpolation) {
  Ecdf e({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(e.Quantile(0.5), 2.5);
}

TEST(EcdfTest, CdfAtCountsInclusive) {
  Ecdf e({1.0, 2.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(e.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.CdfAt(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e.CdfAt(5.0), 1.0);
}

TEST(EcdfTest, SummaryStats) {
  Ecdf e;
  for (int i = 1; i <= 100; ++i) {
    e.Add(static_cast<double>(i));
  }
  e.Seal();
  const SummaryStats s = e.Summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
}

TEST(EcdfTest, CurveLogXIsMonotone) {
  Ecdf e;
  Rng rng(17);
  const LogNormalParams p{0.0, 1.0};
  for (int i = 0; i < 5000; ++i) {
    e.Add(p.Sample(rng));
  }
  e.Seal();
  const auto curve = e.CurveLogX(30);
  ASSERT_EQ(curve.size(), 30u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_NEAR(curve.back().second, 1.0, 1e-9);
}

TEST(EcdfTest, CurveLogXEndsExactlyAtTheSampleRange) {
  // A largest sample v with pow(10, log10(v)) < v: a curve whose last x went
  // through that round trip fell below v and ended short of CDF 1. Found by
  // search, so the case depends on no RNG stream.
  double v = 0.0;
  for (int k = 2001; v == 0.0; ++k) {
    ASSERT_LT(k, 100000);
    const double candidate = k / 1000.0;
    if (std::pow(10.0, std::log10(candidate)) < candidate) {
      v = candidate;
    }
  }
  const Ecdf e(std::vector<double>{0.5, 1.0, v});
  for (const int n : {2, 3, 30}) {
    const auto curve = e.CurveLogX(n);
    ASSERT_EQ(curve.size(), static_cast<size_t>(n));
    EXPECT_EQ(curve.front().first, 0.5);
    EXPECT_EQ(curve.back().first, v);
    EXPECT_EQ(curve.back().second, 1.0);
  }
}

TEST(EcdfTest, EmptyIsSafe) {
  // Empty-set statistics are NaN (rendered "n/a"), never fabricated zeros — the
  // regression where AddQuantileRow printed all-zero rows for empty groups.
  Ecdf e;
  e.Seal();
  EXPECT_TRUE(std::isnan(e.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(e.Mean()));
  EXPECT_TRUE(std::isnan(e.StdDev()));
  const SummaryStats s = e.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.mean));
  EXPECT_TRUE(std::isnan(s.median));
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
  EXPECT_EQ(e.CdfAt(1.0), 0.0);  // P(X <= x) over no samples stays 0.
  EXPECT_TRUE(e.CurveLogX(10).empty());
}

}  // namespace
}  // namespace coldstart::stats
