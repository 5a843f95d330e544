#include "stats/ecdf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace coldstart::stats {

Ecdf::Ecdf(std::vector<double> samples) : samples_(std::move(samples)), sealed_(false) {
  Seal();
}

void Ecdf::Add(double sample) {
  samples_.push_back(sample);
  sealed_ = false;
}

void Ecdf::Seal() {
  if (!sealed_) {
    std::sort(samples_.begin(), samples_.end());
    sealed_ = true;
  }
}

const std::vector<double>& Ecdf::sorted_samples() const {
  COLDSTART_CHECK(sealed_);
  return samples_;
}

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double Ecdf::Quantile(double q) const {
  COLDSTART_CHECK(sealed_);
  if (samples_.empty()) {
    return kNan;  // An empty sample set has no quantiles; renderers show "n/a".
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Ecdf::CdfAt(double x) const {
  COLDSTART_CHECK(sealed_);
  if (samples_.empty()) {
    return 0.0;
  }
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double Ecdf::Mean() const {
  if (samples_.empty()) {
    return kNan;
  }
  double s = 0;
  for (const double v : samples_) {
    s += v;
  }
  return s / static_cast<double>(samples_.size());
}

double Ecdf::StdDev() const {
  if (samples_.empty()) {
    return kNan;
  }
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double m = Mean();
  double s = 0;
  for (const double v : samples_) {
    s += (v - m) * (v - m);
  }
  return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

SummaryStats Ecdf::Summary() const {
  COLDSTART_CHECK(sealed_);
  SummaryStats s;
  s.count = samples_.size();
  if (samples_.empty()) {
    // No fabricated zeros: every statistic of an empty set is NaN ("n/a" in
    // tables), so an empty group can never masquerade as an all-zero one.
    s.mean = s.stddev = s.min = s.p25 = s.median = s.p75 = s.p99 = s.max = kNan;
    return s;
  }
  s.mean = Mean();
  s.stddev = StdDev();
  s.min = samples_.front();
  s.p25 = Quantile(0.25);
  s.median = Quantile(0.5);
  s.p75 = Quantile(0.75);
  s.p99 = Quantile(0.99);
  s.max = samples_.back();
  return s;
}

std::vector<std::pair<double, double>> Ecdf::CurveLogX(int n) const {
  COLDSTART_CHECK(sealed_);
  std::vector<std::pair<double, double>> curve;
  if (samples_.empty() || n <= 0) {
    return curve;
  }
  // Log spacing needs positive endpoints; clamp the low end to a tiny positive value.
  const double lo = std::max(samples_.front(), 1e-9);
  const double hi = std::max(samples_.back(), lo * (1.0 + 1e-12));
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  curve.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // pow(10, log10(v)) can round below v, so the end points are lo and hi
    // themselves: the curve then ends at CDF 1 exactly.
    double x =
        std::pow(10.0, llo + (lhi - llo) * static_cast<double>(i) / std::max(1, n - 1));
    if (i == 0) {
      x = lo;
    } else if (i == n - 1) {
      x = hi;
    }
    curve.emplace_back(x, CdfAt(x));
  }
  return curve;
}

}  // namespace coldstart::stats
