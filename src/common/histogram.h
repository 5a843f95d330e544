// Log-bucketed latency histogram.
//
// Records positive values (durations in µs, ratios, ...) into geometrically spaced
// buckets so that quantiles over 6+ decades (the paper's cold-start times span 10ms to
// >100s) can be tracked in O(1) memory. Quantile error is bounded by the bucket growth
// factor (default ~2.3% with 64 buckets per decade).
//
// Bucket i holds the values v with floor((log10(v) - log10(min_value)) *
// buckets_per_decade) == i, clamped to the edge buckets; non-positive and NaN
// values land in bucket 0. Add does not evaluate that formula. Each layout
// (min, max, buckets per decade) precomputes, once per process, the exact lower
// boundary of every bucket: the smallest double the formula places in it, found
// by stepping with std::nextafter from a pow() guess until the formula's bucket
// changes. The formula does not decrease as v grows (common_test checks it ulp
// by ulp around every boundary), so a value's bucket is the number of
// boundaries at or below it, and the boundaries are exact by construction. A
// lookup indexes a slot table by the value's exponent and top mantissa bits;
// slots are narrower than any bucket, so a slot holds at most one boundary and
// one comparison against it finishes the lookup. The tables are immutable and
// shared by every histogram with the same layout, so a copy carries a pointer,
// not the tables.
#ifndef COLDSTART_COMMON_HISTOGRAM_H_
#define COLDSTART_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace coldstart {

class LogHistogram {
 public:
  // Tracks values in [min_value, max_value] with `buckets_per_decade` geometric buckets
  // per factor of 10. Values below/above the range clamp into the edge buckets.
  LogHistogram(double min_value, double max_value, int buckets_per_decade = 64);

  void Add(double value, uint64_t count = 1);
  void Merge(const LogHistogram& other);
  void Reset();

  uint64_t total_count() const { return total_count_; }
  double min_recorded() const { return min_recorded_; }
  double max_recorded() const { return max_recorded_; }
  double sum() const { return static_cast<double>(sum_fp_) / kSumScale; }
  // NaN for an empty histogram.
  double Mean() const;

  // Value at quantile q in [0, 1]; returns the geometric midpoint of the bucket that
  // contains the q-th sample, clamped to [min_recorded, max_recorded] (so a
  // single-sample histogram returns that sample exactly). NaN for an empty histogram.
  double Quantile(double q) const;

  // Fraction of recorded values <= value.
  double CdfAt(double value) const;

  // Index of the bucket `value` lands in (see the header comment).
  int BucketFor(double value) const;

  int num_buckets() const { return static_cast<int>(counts_.size()); }
  uint64_t bucket_count(int i) const { return counts_[static_cast<size_t>(i)]; }
  // Lower edge of bucket i.
  double bucket_lower(int i) const;

  // Checkpoint layout (common/byte_serde.h): the recorded state, bucket counts
  // plus the exact-value accumulators, doubles by bit pattern. The bucket
  // layout is construction-derived, so a read requires a histogram built with
  // the same range and resolution and CHECK-fails on a bucket-count mismatch.
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self) {
    uint64_t buckets = self.counts_.size();
    a.U64(buckets);
    COLDSTART_CHECK_EQ(buckets, self.counts_.size());
    for (auto& c : self.counts_) {
      a.U64(c);
    }
    a.U64(self.total_count_);
    a.I128(self.sum_fp_);
    a.F64(self.min_recorded_);
    a.F64(self.max_recorded_);
  }

 private:
  // Boundaries and slot table of one (min, max, per-decade) layout.
  struct BucketLayout;
  static const BucketLayout* SharedLayout(double min_value, double max_value,
                                          int buckets_per_decade);

  // The value sum is accumulated in 2^-20 fixed point inside a 128-bit integer.
  // Integer addition is associative, so a histogram split across sub-region
  // shards merges to the exact serial sum regardless of shard count or merge
  // order — a float accumulator would make the sharded sum order-dependent.
  // Headroom: 10^9 values of 10^9 each stay below 2^110.
  static constexpr double kSumScale = 1048576.0;  // 2^20.
  static __int128 ToFixed(double value) {
    return static_cast<__int128>(value * kSumScale);
  }

  const BucketLayout* layout_;  // Immutable, process-lifetime, shared.
  std::vector<uint64_t> counts_;
  uint64_t total_count_ = 0;
  __int128 sum_fp_ = 0;
  double min_recorded_ = 0;
  double max_recorded_ = 0;
};

}  // namespace coldstart

#endif  // COLDSTART_COMMON_HISTOGRAM_H_
