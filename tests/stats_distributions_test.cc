// Tests for distribution parameterizations, sampling, and analytic functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/distributions.h"

namespace coldstart::stats {
namespace {

// --- LogNormal: property sweep over (mu, sigma). ---
class LogNormalParamTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LogNormalParamTest, MomentRoundTrip) {
  const auto [mu, sigma] = GetParam();
  const LogNormalParams p{mu, sigma};
  const LogNormalParams q = LogNormalParams::FromMoments(p.Mean(), p.StdDev());
  EXPECT_NEAR(q.mu, mu, 1e-9);
  EXPECT_NEAR(q.sigma, sigma, 1e-9);
}

TEST_P(LogNormalParamTest, SampleMomentsMatch) {
  const auto [mu, sigma] = GetParam();
  const LogNormalParams p{mu, sigma};
  Rng rng(1234);
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    sum += p.Sample(rng);
  }
  EXPECT_NEAR(sum / n, p.Mean(), p.Mean() * 0.05);
}

TEST_P(LogNormalParamTest, CdfQuantileInverse) {
  const auto [mu, sigma] = GetParam();
  const LogNormalParams p{mu, sigma};
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(p.Cdf(p.Quantile(q)), q, 1e-6);
  }
}

TEST_P(LogNormalParamTest, MedianIsExpMu) {
  const auto [mu, sigma] = GetParam();
  const LogNormalParams p{mu, sigma};
  EXPECT_NEAR(p.Quantile(0.5), std::exp(mu), std::exp(mu) * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LogNormalParamTest,
                         ::testing::Values(std::pair{0.0, 0.5}, std::pair{0.0, 1.0},
                                           std::pair{1.0, 1.5}, std::pair{-1.0, 0.8},
                                           std::pair{2.0, 0.3}));

// --- Weibull: property sweep over (shape, scale). ---
class WeibullParamTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(WeibullParamTest, MomentRoundTrip) {
  const auto [k, lambda] = GetParam();
  const WeibullParams p{k, lambda};
  const WeibullParams q = WeibullParams::FromMoments(p.Mean(), p.StdDev());
  EXPECT_NEAR(q.shape, k, k * 0.01);
  EXPECT_NEAR(q.scale, lambda, lambda * 0.01);
}

TEST_P(WeibullParamTest, SampleMeanMatches) {
  const auto [k, lambda] = GetParam();
  const WeibullParams p{k, lambda};
  Rng rng(99);
  double sum = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    sum += p.Sample(rng);
  }
  EXPECT_NEAR(sum / n, p.Mean(), p.Mean() * 0.05);
}

TEST_P(WeibullParamTest, CdfQuantileInverse) {
  const auto [k, lambda] = GetParam();
  const WeibullParams p{k, lambda};
  for (const double q : {0.05, 0.5, 0.95}) {
    EXPECT_NEAR(p.Cdf(p.Quantile(q)), q, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WeibullParamTest,
                         ::testing::Values(std::pair{0.5, 1.0}, std::pair{0.744, 4.0},
                                           std::pair{1.0, 2.0}, std::pair{2.0, 0.5},
                                           std::pair{3.5, 10.0}));

TEST(WeibullTest, ShapeOneIsExponential) {
  const WeibullParams p{1.0, 2.0};
  EXPECT_NEAR(p.Cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(p.Mean(), 2.0, 1e-12);
}

TEST(BoundedParetoTest, SamplesWithinBounds) {
  const BoundedParetoParams p{0.7, 1.0, 1000.0};
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double x = p.Sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 1000.0);
  }
}

TEST(BoundedParetoTest, CdfMatchesEmpirical) {
  const BoundedParetoParams p{0.7, 1.0, 1000.0};
  Rng rng(6);
  const int n = 100000;
  int below10 = 0;
  for (int i = 0; i < n; ++i) {
    below10 += p.Sample(rng) <= 10.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(below10) / n, p.Cdf(10.0), 0.01);
}

TEST(BoundedParetoTest, HeavierTailForSmallerAlpha) {
  const BoundedParetoParams heavy{0.4, 1.0, 1e6};
  const BoundedParetoParams light{1.5, 1.0, 1e6};
  EXPECT_LT(heavy.Cdf(100.0), light.Cdf(100.0));
}

TEST(ZipfTest, RankProbabilitiesDecrease) {
  const ZipfSampler zipf(100, 1.0);
  for (int r = 1; r < 100; ++r) {
    EXPECT_GE(zipf.ProbabilityOfRank(r - 1), zipf.ProbabilityOfRank(r));
  }
}

TEST(ZipfTest, EmpiricalMatchesProbability) {
  const ZipfSampler zipf(10, 1.2);
  Rng rng(8);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(zipf.Sample(rng))];
  }
  for (int r = 0; r < 10; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(r)]) / n,
                zipf.ProbabilityOfRank(r), 0.01);
  }
}

TEST(CategoricalTest, RespectsWeights) {
  const CategoricalSampler cat({1.0, 3.0, 6.0});
  Rng rng(10);
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(cat.Sample(rng))];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
  EXPECT_DOUBLE_EQ(cat.Probability(2), 0.6);
}

TEST(CategoricalTest, ZeroWeightNeverSampled) {
  const CategoricalSampler cat({1.0, 0.0, 1.0});
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_NE(cat.Sample(rng), 1);
  }
}

TEST(PoissonTest, MeanAndVarianceMatchLambda) {
  Rng rng(14);
  for (const double lambda : {0.3, 2.0, 20.0, 150.0}) {
    double sum = 0, sum2 = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      const int k = SamplePoisson(rng, lambda);
      sum += k;
      sum2 += static_cast<double>(k) * k;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, lambda, std::max(0.05, lambda * 0.03));
    EXPECT_NEAR(var, lambda, std::max(0.15, lambda * 0.08));
  }
}

TEST(PoissonTest, ZeroLambdaGivesZero) {
  Rng rng(15);
  EXPECT_EQ(SamplePoisson(rng, 0.0), 0);
  EXPECT_EQ(SamplePoisson(rng, -1.0), 0);
}

TEST(StdNormalCdfTest, KnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(StdNormalCdf(-1.959963985), 0.025, 1e-6);
}

// --- Rng::NextGaussian (the ziggurat) against the standard normal. ---

TEST(NormalSamplerTest, KolmogorovSmirnovAgainstStdNormalCdf) {
  Rng rng(99);
  const int n = 1'000'000;
  std::vector<double> x(static_cast<size_t>(n));
  for (double& v : x) {
    v = rng.NextGaussian();
  }
  std::sort(x.begin(), x.end());
  double d = 0.0;
  for (int i = 0; i < n; ++i) {
    const double f = StdNormalCdf(x[static_cast<size_t>(i)]);
    d = std::max({d, f - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - f});
  }
  // The KS critical value at alpha = 0.001 is 1.9495 / sqrt(n).
  EXPECT_LT(d, 1.9495 / std::sqrt(static_cast<double>(n)));
}

TEST(NormalSamplerTest, TailFrequenciesAndSymmetry) {
  Rng rng(7);
  const int n = 4'000'000;
  int64_t positive = 0, above3 = 0, below3 = 0, beyond4 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    positive += g > 0.0 ? 1 : 0;
    above3 += g > 3.0 ? 1 : 0;
    below3 += g < -3.0 ? 1 : 0;
    beyond4 += std::abs(g) > 4.0 ? 1 : 0;
  }
  // Within 5 binomial standard deviations of P(|x| > 3) and P(|x| > 4).
  const auto expect_count = [n](int64_t count, double p, const char* what) {
    const double mean = n * p;
    EXPECT_NEAR(static_cast<double>(count), mean, 5.0 * std::sqrt(mean * (1.0 - p))) << what;
  };
  expect_count(above3 + below3, 2.0 * StdNormalCdf(-3.0), "|x| > 3");
  expect_count(beyond4, 2.0 * StdNormalCdf(-4.0), "|x| > 4");
  expect_count(positive, 0.5, "x > 0");
  // Each side of +-3 holds half of the |x| > 3 draws.
  const double beyond3 = static_cast<double>(above3 + below3);
  EXPECT_NEAR(static_cast<double>(above3), 0.5 * beyond3, 2.5 * std::sqrt(beyond3));
}

}  // namespace
}  // namespace coldstart::stats
