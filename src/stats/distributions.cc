#include "stats/distributions.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace coldstart::stats {

namespace {
constexpr double kSqrt2 = 1.4142135623730950488;
constexpr double kSqrt2Pi = 2.5066282746310005024;
}  // namespace

double StdNormalCdf(double z) { return 0.5 * std::erfc(-z / kSqrt2); }

int SamplePoisson(Rng& rng, double lambda) {
  if (lambda <= 0.0) {
    return 0;
  }
  if (lambda > 64.0) {
    // Box-Muller, not NextGaussian: the arrival streams' counts must not move
    // (see BoxMullerGaussian).
    const double v = lambda + std::sqrt(lambda) * BoxMullerGaussian(rng);
    return v <= 0.0 ? 0 : static_cast<int>(v + 0.5);
  }
  const double limit = std::exp(-lambda);
  int k = 0;
  double product = rng.NextDouble();
  while (product > limit) {
    ++k;
    product *= rng.NextDouble();
  }
  return k;
}

// Inverse standard normal CDF: Acklam's rational approximation (|error| < 1.15e-9),
// good enough for sampling and quantile reporting.
static double StdNormalQuantile(double p) {
  COLDSTART_CHECK_GT(p, 0.0);
  COLDSTART_CHECK_LT(p, 1.0);
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > 1 - plow) {
    q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

// ---------------------------------------------------------------------------
// LogNormal.

double LogNormalParams::Mean() const { return std::exp(mu + 0.5 * sigma * sigma); }

double LogNormalParams::StdDev() const {
  const double s2 = sigma * sigma;
  return std::exp(mu + 0.5 * s2) * std::sqrt(std::exp(s2) - 1.0);
}

double LogNormalParams::Median() const { return std::exp(mu); }

LogNormalParams LogNormalParams::FromMoments(double mean, double stddev) {
  COLDSTART_CHECK_GT(mean, 0.0);
  COLDSTART_CHECK_GT(stddev, 0.0);
  const double cv2 = (stddev / mean) * (stddev / mean);
  LogNormalParams p;
  p.sigma = std::sqrt(std::log1p(cv2));
  p.mu = std::log(mean) - 0.5 * p.sigma * p.sigma;
  return p;
}

double LogNormalParams::Sample(Rng& rng) const {
  return std::exp(mu + sigma * rng.NextGaussian());
}

double LogNormalParams::Pdf(double x) const {
  if (x <= 0) {
    return 0.0;
  }
  const double z = (std::log(x) - mu) / sigma;
  return std::exp(-0.5 * z * z) / (x * sigma * kSqrt2Pi);
}

double LogNormalParams::Cdf(double x) const {
  if (x <= 0) {
    return 0.0;
  }
  return StdNormalCdf((std::log(x) - mu) / sigma);
}

double LogNormalParams::Quantile(double q) const {
  return std::exp(mu + sigma * StdNormalQuantile(q));
}

// ---------------------------------------------------------------------------
// Weibull.

double WeibullParams::Mean() const { return scale * std::tgamma(1.0 + 1.0 / shape); }

double WeibullParams::StdDev() const {
  const double g1 = std::tgamma(1.0 + 1.0 / shape);
  const double g2 = std::tgamma(1.0 + 2.0 / shape);
  return scale * std::sqrt(std::max(0.0, g2 - g1 * g1));
}

WeibullParams WeibullParams::FromMoments(double mean, double stddev) {
  COLDSTART_CHECK_GT(mean, 0.0);
  COLDSTART_CHECK_GT(stddev, 0.0);
  const double target_cv = stddev / mean;
  // CV(k) = sqrt(G2/G1^2 - 1) is strictly decreasing in k; bisection on log k.
  auto cv_of = [](double k) {
    const double g1 = std::lgamma(1.0 + 1.0 / k);
    const double g2 = std::lgamma(1.0 + 2.0 / k);
    return std::sqrt(std::max(0.0, std::exp(g2 - 2.0 * g1) - 1.0));
  };
  double lo = 0.05, hi = 20.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cv_of(mid) > target_cv) {
      lo = mid;  // CV too high -> raise k.
    } else {
      hi = mid;
    }
  }
  WeibullParams p;
  p.shape = 0.5 * (lo + hi);
  p.scale = mean / std::tgamma(1.0 + 1.0 / p.shape);
  return p;
}

double WeibullParams::Sample(Rng& rng) const {
  // Inverse transform: lambda * (-ln U)^(1/k).
  return scale * std::pow(-std::log(rng.NextDoublePositive()), 1.0 / shape);
}

double WeibullParams::Pdf(double x) const {
  if (x < 0) {
    return 0.0;
  }
  if (x == 0) {
    return shape > 1 ? 0.0 : (shape == 1 ? 1.0 / scale : 0.0);
  }
  const double z = x / scale;
  return (shape / scale) * std::pow(z, shape - 1.0) * std::exp(-std::pow(z, shape));
}

double WeibullParams::Cdf(double x) const {
  if (x <= 0) {
    return 0.0;
  }
  return -std::expm1(-std::pow(x / scale, shape));
}

double WeibullParams::Quantile(double q) const {
  COLDSTART_CHECK_GE(q, 0.0);
  COLDSTART_CHECK_LT(q, 1.0);
  return scale * std::pow(-std::log1p(-q), 1.0 / shape);
}

// ---------------------------------------------------------------------------
// Bounded Pareto.

double BoundedParetoParams::Sample(Rng& rng) const {
  // Inverse transform on the truncated Pareto CDF.
  const double u = rng.NextDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

double BoundedParetoParams::Cdf(double x) const {
  if (x <= lo) {
    return 0.0;
  }
  if (x >= hi) {
    return 1.0;
  }
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return (1.0 - la * std::pow(x, -alpha)) / (1.0 - la / ha);
}

// ---------------------------------------------------------------------------
// Zipf.

ZipfSampler::ZipfSampler(int n, double s) {
  COLDSTART_CHECK_GT(n, 0);
  cumulative_.resize(static_cast<size_t>(n));
  double total = 0;
  for (int i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cumulative_[static_cast<size_t>(i)] = total;
  }
  for (auto& c : cumulative_) {
    c /= total;
  }
}

int ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<int>(it - cumulative_.begin());
}

double ZipfSampler::ProbabilityOfRank(int rank) const {
  COLDSTART_CHECK_GE(rank, 0);
  COLDSTART_CHECK_LT(rank, static_cast<int>(cumulative_.size()));
  const double prev = rank == 0 ? 0.0 : cumulative_[static_cast<size_t>(rank - 1)];
  return cumulative_[static_cast<size_t>(rank)] - prev;
}

// ---------------------------------------------------------------------------
// Categorical.

CategoricalSampler::CategoricalSampler(std::vector<double> weights) {
  COLDSTART_CHECK(!weights.empty());
  double total = 0;
  for (const double w : weights) {
    COLDSTART_CHECK_GE(w, 0.0);
    total += w;
  }
  COLDSTART_CHECK_GT(total, 0.0);
  cumulative_.resize(weights.size());
  probabilities_.resize(weights.size());
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    cumulative_[i] = acc;
    probabilities_[i] = weights[i] / total;
  }
  cumulative_.back() = 1.0;
}

int CategoricalSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<int>(it - cumulative_.begin());
}

double CategoricalSampler::Probability(int index) const {
  COLDSTART_CHECK_GE(index, 0);
  COLDSTART_CHECK_LT(index, size());
  return probabilities_[static_cast<size_t>(index)];
}

}  // namespace coldstart::stats
