#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace coldstart {

namespace {

// The bucket formula. The layout tables reproduce it exactly; only layout
// construction evaluates it.
int FormulaBucket(double value, double log_min, double inv_log_step, int n) {
  if (!(value > 0.0)) {
    return 0;
  }
  const double pos = (std::log10(value) - log_min) * inv_log_step;
  if (pos < 0) {
    return 0;
  }
  if (pos >= n - 1) {
    return n - 1;
  }
  return static_cast<int>(pos);
}

}  // namespace

struct LogHistogram::BucketLayout {
  double log_min = 0;
  double log_step = 0;
  int num_buckets = 0;
  // lower[i] for 1 <= i < num_buckets: the smallest double the formula places
  // in bucket i or above. lower[0] = 0 and lower[num_buckets] = +inf.
  std::vector<double> lower;
  // A positive double's slot key is its bit pattern shifted right by
  // slot_shift: the exponent and the top mantissa bits. slot_bucket[k -
  // first_key] is the bucket of the smallest double with key k, for the keys
  // from lower[1]'s to lower[num_buckets - 1]'s; keys below the range are in
  // bucket 0, keys above it in the last bucket.
  int slot_shift = 0;
  uint64_t first_key = 0;
  std::vector<uint32_t> slot_bucket;
};

const LogHistogram::BucketLayout* LogHistogram::SharedLayout(double min_value,
                                                       double max_value,
                                                       int buckets_per_decade) {
  // Histograms hold raw pointers into this map, so its layouts are never
  // erased; a run uses a handful of them. Sinks are built on worker threads.
  static std::mutex mu;
  static std::map<std::tuple<double, double, int>, std::unique_ptr<const BucketLayout>>
      layouts;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<const BucketLayout>& shared =
      layouts[{min_value, max_value, buckets_per_decade}];
  if (shared != nullptr) {
    return shared.get();
  }

  auto layout = std::make_unique<BucketLayout>();
  const double log_min = std::log10(min_value);
  const double log_max = std::log10(max_value);
  const double inv_log_step = buckets_per_decade;
  const int n = static_cast<int>(std::ceil((log_max - log_min) * inv_log_step)) + 1;
  layout->log_min = log_min;
  layout->log_step = 1.0 / buckets_per_decade;
  layout->num_buckets = n;
  const auto bucket = [&](double v) {
    return FormulaBucket(v, log_min, inv_log_step, n);
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  layout->lower.assign(static_cast<size_t>(n) + 1, 0.0);
  layout->lower[static_cast<size_t>(n)] = kInf;
  for (int i = 1; i < n; ++i) {
    // Start from the analytic boundary, then walk ulp by ulp to the first
    // double the formula puts in bucket i or above.
    double v = std::clamp(std::pow(10.0, log_min + i * layout->log_step),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max());
    if (bucket(v) >= i) {
      for (double below = std::nextafter(v, 0.0); below > 0.0 && bucket(below) >= i;
           below = std::nextafter(below, 0.0)) {
        v = below;
      }
    } else {
      do {
        v = std::nextafter(v, kInf);
      } while (bucket(v) < i);
    }
    layout->lower[static_cast<size_t>(i)] = v;
  }

  // Slots: the fewest mantissa bits that make every slot (relative width at
  // most 2^-bits) narrower than every bucket (relative width 10^(1/bpd) - 1),
  // with a margin for the boundaries' rounding.
  const double bucket_width = std::pow(10.0, layout->log_step) - 1.0;
  int mantissa_bits = 0;
  while (std::ldexp(1.0, -mantissa_bits) >= 0.9 * bucket_width) {
    ++mantissa_bits;
  }
  COLDSTART_CHECK_LE(mantissa_bits, 52);
  layout->slot_shift = 52 - mantissa_bits;
  if (n >= 2) {
    const auto key_of = [&](double v) {
      return std::bit_cast<uint64_t>(v) >> layout->slot_shift;
    };
    const auto slot_start = [&](uint64_t key) {
      return std::bit_cast<double>(key << layout->slot_shift);
    };
    layout->first_key = key_of(layout->lower[1]);
    const uint64_t last_key = key_of(layout->lower[static_cast<size_t>(n) - 1]);
    layout->slot_bucket.reserve(last_key - layout->first_key + 1);
    size_t b = 0;
    for (uint64_t key = layout->first_key; key <= last_key; ++key) {
      const double start = slot_start(key);
      while (layout->lower[b + 1] <= start) {
        ++b;
      }
      // One comparison with lower[b + 1] must finish every lookup in the slot.
      if (b + 2 <= static_cast<size_t>(n)) {
        COLDSTART_CHECK_GE(layout->lower[b + 2], slot_start(key + 1));
      }
      layout->slot_bucket.push_back(static_cast<uint32_t>(b));
    }
  }
  shared = std::move(layout);
  return shared.get();
}

LogHistogram::LogHistogram(double min_value, double max_value, int buckets_per_decade) {
  COLDSTART_CHECK_GT(min_value, 0.0);
  COLDSTART_CHECK_GT(max_value, min_value);
  COLDSTART_CHECK_GT(buckets_per_decade, 0);
  layout_ = SharedLayout(min_value, max_value, buckets_per_decade);
  counts_.assign(static_cast<size_t>(layout_->num_buckets), 0);
}

int LogHistogram::BucketFor(double value) const {
  if (!(value > 0.0)) {
    return 0;
  }
  const BucketLayout& l = *layout_;
  const uint64_t key = std::bit_cast<uint64_t>(value) >> l.slot_shift;
  if (key < l.first_key) {
    return 0;
  }
  const uint64_t slot = key - l.first_key;
  if (slot >= l.slot_bucket.size()) {
    return l.num_buckets - 1;
  }
  const uint32_t b = l.slot_bucket[slot];
  return static_cast<int>(b) + (value >= l.lower[b + 1] ? 1 : 0);
}

void LogHistogram::Add(double value, uint64_t count) {
  if (count == 0) {
    return;
  }
  counts_[static_cast<size_t>(BucketFor(value))] += count;
  if (total_count_ == 0) {
    min_recorded_ = value;
    max_recorded_ = value;
  } else {
    min_recorded_ = std::min(min_recorded_, value);
    max_recorded_ = std::max(max_recorded_, value);
  }
  total_count_ += count;
  sum_fp_ += ToFixed(value) * static_cast<__int128>(count);
}

void LogHistogram::Merge(const LogHistogram& other) {
  COLDSTART_CHECK_EQ(counts_.size(), other.counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.total_count_ > 0) {
    if (total_count_ == 0) {
      min_recorded_ = other.min_recorded_;
      max_recorded_ = other.max_recorded_;
    } else {
      min_recorded_ = std::min(min_recorded_, other.min_recorded_);
      max_recorded_ = std::max(max_recorded_, other.max_recorded_);
    }
  }
  total_count_ += other.total_count_;
  sum_fp_ += other.sum_fp_;
}

void LogHistogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_count_ = 0;
  sum_fp_ = 0;
  min_recorded_ = 0;
  max_recorded_ = 0;
}

double LogHistogram::Mean() const {
  return total_count_ == 0 ? std::numeric_limits<double>::quiet_NaN()
                           : sum() / static_cast<double>(total_count_);
}

double LogHistogram::bucket_lower(int i) const {
  return std::pow(10.0, layout_->log_min + static_cast<double>(i) * layout_->log_step);
}

double LogHistogram::Quantile(double q) const {
  if (total_count_ == 0) {
    return std::numeric_limits<double>::quiet_NaN();  // No samples, no quantiles.
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_count_ - 1);
  uint64_t seen = 0;
  for (int i = 0; i < num_buckets(); ++i) {
    const uint64_t c = counts_[static_cast<size_t>(i)];
    if (c == 0) {
      continue;
    }
    if (static_cast<double>(seen + c - 1) >= target) {
      // Geometric midpoint of the bucket, clamped to the recorded range.
      const double mid = std::pow(
          10.0, layout_->log_min + (static_cast<double>(i) + 0.5) * layout_->log_step);
      return std::clamp(mid, min_recorded_, max_recorded_);
    }
    seen += c;
  }
  return max_recorded_;
}

double LogHistogram::CdfAt(double value) const {
  if (total_count_ == 0) {
    return 0.0;
  }
  const int b = BucketFor(value);
  uint64_t seen = 0;
  for (int i = 0; i <= b; ++i) {
    seen += counts_[static_cast<size_t>(i)];
  }
  return static_cast<double>(seen) / static_cast<double>(total_count_);
}

}  // namespace coldstart
