// Tests for the common layer: RNG, histograms, env parsing, time formatting,
// tables, and the file frame every durable binary artifact shares.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/framed_file.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/table.h"
#include "stats/ecdf.h"
#include "temp_dir.h"

namespace coldstart {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextDoublePositiveNeverZero) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.NextDoublePositive(), 0.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(19);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BoxMullerTakesTwoWords) {
  // The workload layer's streams depend on it: one draw, two NextDouble words.
  Rng drawn(29), by_hand(29);
  const double g = BoxMullerGaussian(drawn);
  const double u1 = by_hand.NextDoublePositive();
  const double u2 = by_hand.NextDouble();
  EXPECT_EQ(g, std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(6.283185307179586476925286766559 * u2));
  EXPECT_EQ(drawn.NextU64(), by_hand.NextU64());
}

// x_i of the ziggurat, recovered exactly from the scale table.
double ZigguratEdge(const ZigguratTables& z, int i) {
  return i == ZigguratTables::kLayers ? 0.0 : z.scale[static_cast<size_t>(i)] * 0x1.0p53;
}

TEST(ZigguratTest, TablesCloseTheRecurrence) {
  const ZigguratTables& z = ZigguratTables::Get();
  EXPECT_EQ(&z, &ZigguratTables::Get());  // Built once, shared.
  EXPECT_EQ(ZigguratEdge(z, 1), ZigguratTables::kTailStart);
  // Marsaglia & Tsang's published area for 256 layers, given to 12 digits.
  EXPECT_NEAR(z.area, 0.00492867323399, 5e-14);
  EXPECT_EQ(z.density[0], 0.0);
  EXPECT_EQ(z.density[ZigguratTables::kLayers], 1.0);
  for (int i = 0; i < ZigguratTables::kLayers; ++i) {
    SCOPED_TRACE(testing::Message() << "layer " << i);
    const auto l = static_cast<size_t>(i);
    const double x = ZigguratEdge(z, i);
    const double next = ZigguratEdge(z, i + 1);
    EXPECT_GT(x, next);
    EXPECT_LT(z.density[l], z.density[l + 1]);
    if (i >= 1) {
      EXPECT_NEAR(z.density[l], std::exp(-0.5 * x * x), 1e-16);
    }
    // Equal areas, down to the top layer, where the recurrence closes at 0.
    EXPECT_NEAR(x * (z.density[l + 1] - z.density[l]) / z.area, 1.0, 1e-12);
    EXPECT_EQ(z.accept[l], static_cast<uint64_t>(next / x * 0x1.0p53));
    EXPECT_LT(z.accept[l], uint64_t{1} << 53);
  }
  EXPECT_EQ(z.accept[ZigguratTables::kLayers - 1], 0u);  // The top layer is all wedge.
}

TEST(ZigguratTest, FastWedgeBaseAndTailPathsAllRun) {
  // Classifies every draw by its first word, as NextGaussian does, and checks
  // each path's result and word count. Expected path frequencies follow from
  // the tables: layers are equally likely.
  const ZigguratTables& z = ZigguratTables::Get();
  Rng rng(2024);
  const int n = 2'000'000;
  int64_t fast = 0, base = 0, wedge = 0, tail = 0;
  for (int i = 0; i < n; ++i) {
    Rng one_word = rng;
    const uint64_t bits = one_word.NextU64();
    const double g = rng.NextGaussian();
    uint64_t after[4], expected[4];
    rng.SaveState(after);
    one_word.SaveState(expected);
    const bool took_one_word = std::equal(after, after + 4, expected);

    const uint64_t magnitude = bits >> 11;
    const size_t layer = bits & 0xFF;
    const double sign = (bits & 0x100) != 0 ? -1.0 : 1.0;
    const double x = static_cast<double>(magnitude) * z.scale[layer];
    if (magnitude < z.accept[layer] || (layer == 0 && x < ZigguratTables::kTailStart)) {
      ++(magnitude < z.accept[layer] ? fast : base);
      ASSERT_EQ(g, sign * x);
      ASSERT_TRUE(took_one_word);
    } else if (layer == 0) {
      ++tail;
      ASSERT_GT(sign * g, ZigguratTables::kTailStart);
      ASSERT_FALSE(took_one_word);
    } else {
      ++wedge;  // Accepted after one more word, or rejected and redrawn.
      ASSERT_FALSE(took_one_word);
    }
  }
  double p_wedge = 0.0;
  for (size_t l = 1; l < static_cast<size_t>(ZigguratTables::kLayers); ++l) {
    p_wedge += (1.0 - static_cast<double>(z.accept[l]) * 0x1.0p-53) / ZigguratTables::kLayers;
  }
  const double p_tail =
      (1.0 - ZigguratTables::kTailStart / ZigguratEdge(z, 0)) / ZigguratTables::kLayers;
  const auto expect_count = [n](int64_t count, double p, const char* what) {
    const double mean = n * p;
    EXPECT_NEAR(static_cast<double>(count), mean, 5.0 * std::sqrt(mean * (1.0 - p))) << what;
  };
  expect_count(wedge, p_wedge, "wedge");
  expect_count(tail, p_tail, "tail");
  EXPECT_GT(tail, 0);
  EXPECT_GT(wedge, 0);
  EXPECT_LE(base, 2);  // Only a rounding edge of the base layer's threshold.
  EXPECT_GT(static_cast<double>(fast) / n, 0.98);
}

TEST(ZigguratTest, FirstDrawsArePinned) {
  // Bit patterns of Rng(1)'s first 16 draws: a change to the tables, the bit
  // layout or the slow path shows here before it reaches any golden.
  constexpr uint64_t kPinned[16] = {
      0x3fe7ce06c09208f1ULL, 0x3fd7c171454ecfa0ULL,
      0xbff7fba70d88d6c5ULL, 0xbfdfe30ff7b8b800ULL,
      0x3ff21f5608135c20ULL, 0xbfd5be0fe9bd5002ULL,
      0x3faba98ec471ce9fULL, 0x3fe05aee1cf24e97ULL,
      0x4000842ba9557b80ULL, 0xbfe1220a686354faULL,
      0x3fecb5d141781b24ULL, 0x3ff39a92e2ab0646ULL,
      0x3fe269e100456e27ULL, 0x3ff6d9d1b476c451ULL,
      0xbfe17846c1be84f9ULL, 0xc0008f24dfd6b339ULL};
  Rng rng(1);
  for (size_t i = 0; i < 16; ++i) {
    const double g = rng.NextGaussian();
    uint64_t bits;
    std::memcpy(&bits, &g, sizeof(bits));
    EXPECT_EQ(bits, kPinned[i]) << "draw " << i << " = " << g;
  }
}

TEST(RngTest, ForkStreamIsDeterministic) {
  Rng a(5), b(5);
  Rng fa = a.ForkStream("workload");
  Rng fb = b.ForkStream("workload");
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(fa.NextU64(), fb.NextU64());
  }
}

TEST(RngTest, ForkStreamLabelsIndependent) {
  Rng a(5);
  Rng f1 = a.ForkStream("x");
  Rng f2 = a.ForkStream("y");
  EXPECT_NE(f1.NextU64(), f2.NextU64());
}

TEST(RngTest, ForkDoesNotPerturbParent) {
  Rng a(5), b(5);
  (void)a.ForkStream("anything");
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, HashStringStableAndDistinct) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(FromSeconds(1.5), 1500000);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_EQ(MinuteIndex(59 * kSecond), 0);
  EXPECT_EQ(MinuteIndex(61 * kSecond), 1);
  EXPECT_EQ(DayIndex(25 * kHour), 1);
  EXPECT_DOUBLE_EQ(HourOfDay(kDay + 6 * kHour), 6.0);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(FormatSimTime(0), "d00 00:00:00.000");
  EXPECT_EQ(FormatSimTime(kDay + kHour + kMinute + kSecond + kMillisecond),
            "d01 01:01:01.001");
  EXPECT_EQ(FormatDuration(500), "500us");
  EXPECT_EQ(FormatDuration(2 * kSecond), "2.000s");
}

TEST(HistogramTest, QuantilesOfUniformSpread) {
  LogHistogram h(1e-3, 1e3);
  for (int i = 1; i <= 1000; ++i) {
    h.Add(static_cast<double>(i) / 10.0);  // 0.1 .. 100.
  }
  EXPECT_EQ(h.total_count(), 1000u);
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 5.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 8.0);
  EXPECT_NEAR(h.Mean(), 50.05, 0.5);
}

TEST(HistogramTest, ClampsOutOfRange) {
  LogHistogram h(1.0, 100.0);
  h.Add(1e-9);
  h.Add(1e9);
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_GT(h.CdfAt(1.5), 0.0);
}

TEST(HistogramTest, MergeAddsCounts) {
  LogHistogram a(1.0, 100.0), b(1.0, 100.0);
  a.Add(2.0);
  b.Add(50.0);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 2u);
  EXPECT_DOUBLE_EQ(a.max_recorded(), 50.0);
  EXPECT_DOUBLE_EQ(a.min_recorded(), 2.0);
}

TEST(HistogramTest, EmptyStatisticsAreNaN) {
  const LogHistogram h(1.0, 100.0);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.Mean()));
  EXPECT_EQ(h.CdfAt(10.0), 0.0);
}

TEST(HistogramTest, MergeEmptyDoesNotClobberMinMax) {
  // The guard in Merge(): an empty other's zero-initialized min/max must not leak
  // into a populated histogram (and merging INTO an empty one must adopt the
  // source's range, not keep zeros).
  LogHistogram a(1.0, 100.0), empty(1.0, 100.0);
  a.Add(2.0);
  a.Add(50.0);
  a.Merge(empty);
  EXPECT_EQ(a.total_count(), 2u);
  EXPECT_DOUBLE_EQ(a.min_recorded(), 2.0);
  EXPECT_DOUBLE_EQ(a.max_recorded(), 50.0);

  LogHistogram b(1.0, 100.0);
  b.Merge(a);
  EXPECT_EQ(b.total_count(), 2u);
  EXPECT_DOUBLE_EQ(b.min_recorded(), 2.0);
  EXPECT_DOUBLE_EQ(b.max_recorded(), 50.0);

  LogHistogram c(1.0, 100.0);
  c.Merge(empty);  // empty.Merge(empty): still no samples, still NaN stats.
  EXPECT_EQ(c.total_count(), 0u);
  EXPECT_TRUE(std::isnan(c.Quantile(0.5)));
}

TEST(HistogramTest, SingleSampleQuantileClampsToSample) {
  // The bucket midpoint is clamped to [min_recorded, max_recorded], so with one
  // sample every quantile is that sample exactly — not the midpoint's ~2% error.
  LogHistogram h(1e-3, 1e3);
  h.Add(7.25);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 7.25);
  }
}

TEST(HistogramTest, CdfAtOutOfRangeValues) {
  LogHistogram h(1.0, 100.0);
  h.Add(5.0);
  h.Add(20.0);
  EXPECT_EQ(h.CdfAt(1e6), 1.0);     // Above the range: everything recorded is <=.
  EXPECT_EQ(h.CdfAt(200.0), 1.0);   // Above max_recorded but inside the top bucket.
  EXPECT_EQ(h.CdfAt(2.0), 0.0);     // Below every sample.
  // Non-positive values clamp into bucket 0, which holds no samples here.
  EXPECT_EQ(h.CdfAt(0.0), 0.0);
  EXPECT_EQ(h.CdfAt(-3.0), 0.0);
}

TEST(HistogramTest, QuantileWithinOneBucketGrowthFactorOfExact) {
  // The streaming-vs-exact error contract the O(1)-memory trace sink relies on:
  // a log-bucketed quantile is within one bucket growth factor (10^(1/64) at the
  // default resolution) of the exact Ecdf quantile.
  constexpr int kBucketsPerDecade = 64;
  LogHistogram h(1e-3, 1e3, kBucketsPerDecade);
  stats::Ecdf exact;
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(rng.NextGaussian());
    h.Add(v);
    exact.Add(v);
  }
  exact.Seal();
  const double growth = std::pow(10.0, 1.0 / kBucketsPerDecade);
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double approx = h.Quantile(q);
    const double truth = exact.Quantile(q);
    EXPECT_LE(approx, truth * growth) << "q=" << q;
    EXPECT_GE(approx, truth / growth) << "q=" << q;
  }
}

// The bucket the old per-value formula picks: floor((log10(v) - log10(min)) *
// buckets_per_decade), clamped to [0, n - 1]; 0 for non-positive and NaN.
int FormulaBucket(double v, double min_value, int buckets_per_decade, int n) {
  if (!(v > 0.0)) {
    return 0;
  }
  const double pos = (std::log10(v) - std::log10(min_value)) * buckets_per_decade;
  return static_cast<int>(std::clamp(std::floor(pos), 0.0, static_cast<double>(n - 1)));
}

struct HistogramLayout {
  double min_value;
  double max_value;
  int buckets_per_decade;
};

// The streaming sink's three layouts (trace/streaming_aggregates.cc), the
// layouts the tests above use, and coarser and finer resolutions.
const HistogramLayout kLayouts[] = {
    {1e-3, 1e4, 64}, {1e-5, 1e4, 64}, {1e-2, 1e9, 64},  {1e-3, 1e3, 64},
    {1.0, 100.0, 64}, {1e-2, 1e2, 64}, {1e-3, 1e3, 8},  {0.5, 7e5, 10},
    {1e-6, 1e6, 1},   {1.0, 1e3, 256}, {3e-7, 2e11, 100},
};

TEST(HistogramBucketTest, MatchesFormulaAroundEveryBoundary) {
  constexpr int kUlps = 50;
  for (const HistogramLayout& layout : kLayouts) {
    const LogHistogram h(layout.min_value, layout.max_value, layout.buckets_per_decade);
    const int n = h.num_buckets();
    const auto formula = [&](double v) {
      return FormulaBucket(v, layout.min_value, layout.buckets_per_decade, n);
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (int i = 1; i < n; ++i) {
      // The formula's boundary: the first double it puts in bucket i or above,
      // found by walking from the analytic one.
      double boundary = h.bucket_lower(i);
      while (formula(boundary) < i) {
        boundary = std::nextafter(boundary, kInf);
      }
      while (formula(std::nextafter(boundary, 0.0)) >= i) {
        boundary = std::nextafter(boundary, 0.0);
      }
      // kUlps doubles each side of it: BucketFor agrees with the formula at
      // every step, and the formula never decreases along the walk.
      double v = boundary;
      for (int k = 0; k < kUlps; ++k) {
        v = std::nextafter(v, 0.0);
      }
      int previous = -1;
      for (int k = 0; k <= 2 * kUlps; ++k, v = std::nextafter(v, kInf)) {
        const int expected = formula(v);
        ASSERT_EQ(h.BucketFor(v), expected)
            << "layout (" << layout.min_value << ", " << layout.max_value << ", "
            << layout.buckets_per_decade << ") boundary " << i << " v=" << v;
        ASSERT_GE(expected, previous) << "formula decreased at v=" << v;
        previous = expected;
      }
    }
  }
}

TEST(HistogramBucketTest, EdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const HistogramLayout& layout : kLayouts) {
    const LogHistogram h(layout.min_value, layout.max_value, layout.buckets_per_decade);
    const int n = h.num_buckets();
    EXPECT_EQ(h.BucketFor(0.0), 0);
    EXPECT_EQ(h.BucketFor(-0.0), 0);
    EXPECT_EQ(h.BucketFor(-1.0), 0);
    EXPECT_EQ(h.BucketFor(-kInf), 0);
    EXPECT_EQ(h.BucketFor(std::numeric_limits<double>::quiet_NaN()), 0);
    EXPECT_EQ(h.BucketFor(kInf), n - 1);
    for (const double v :
         {std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::min(),
          1e-300, layout.min_value, std::nextafter(layout.min_value, 0.0),
          std::nextafter(layout.min_value, kInf), layout.max_value,
          std::nextafter(layout.max_value, 0.0), std::nextafter(layout.max_value, kInf),
          1.0, 1e300, std::numeric_limits<double>::max()}) {
      EXPECT_EQ(h.BucketFor(v),
                FormulaBucket(v, layout.min_value, layout.buckets_per_decade, n))
          << "v=" << v;
    }
  }
}

TEST(HistogramBucketTest, MatchesFormulaOnSeededLogUniformSweep) {
  Rng rng(26);
  for (const HistogramLayout& layout : kLayouts) {
    const LogHistogram h(layout.min_value, layout.max_value, layout.buckets_per_decade);
    const int n = h.num_buckets();
    // Two decades beyond each end, so both clamps are exercised.
    const double lo = std::log10(layout.min_value) - 2.0;
    const double hi = std::log10(layout.max_value) + 2.0;
    for (int k = 0; k < 200000; ++k) {
      const double v = std::pow(10.0, rng.Uniform(lo, hi));
      ASSERT_EQ(h.BucketFor(v),
                FormulaBucket(v, layout.min_value, layout.buckets_per_decade, n))
          << "v=" << v;
    }
  }
}

TEST(HistogramBucketTest, CopiesAndSameLayoutHistogramsAgree) {
  const LogHistogram a(1e-3, 1e4);
  LogHistogram b(1e-3, 1e4);
  b.Add(3.5);
  const LogHistogram copy(b);
  EXPECT_EQ(copy.num_buckets(), a.num_buckets());
  for (const double v : {1e-4, 2e-3, 0.1, 3.5, 77.0, 9.9e3, 1e5}) {
    EXPECT_EQ(copy.BucketFor(v), a.BucketFor(v));
  }
  EXPECT_EQ(copy.bucket_count(copy.BucketFor(3.5)), 1u);
}

// --- Env parsing. ---

TEST(EnvTest, ParseIntAcceptsOnlyWholeDecimalIntegers) {
  EXPECT_EQ(ParseInt("0"), 0);
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_EQ(ParseInt("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInt("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("-").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
  EXPECT_FALSE(ParseInt("4x").has_value());       // Trailing junk.
  EXPECT_FALSE(ParseInt(" 4").has_value());       // No whitespace tolerance.
  EXPECT_FALSE(ParseInt("4.0").has_value());
  EXPECT_FALSE(ParseInt("0x10").has_value());
  EXPECT_FALSE(ParseInt("9223372036854775808").has_value());    // Overflow.
  EXPECT_FALSE(ParseInt("-9223372036854775809").has_value());   // Underflow.
  EXPECT_FALSE(ParseInt("99999999999999999999999").has_value());
}

TEST(EnvTest, ParseDoubleAcceptsOnlyWholeFiniteNumbers) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.3").value(), 0.3);
  EXPECT_DOUBLE_EQ(ParseDouble("-2.5e-3").value(), -2.5e-3);
  EXPECT_DOUBLE_EQ(ParseDouble("7").value(), 7.0);
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("0.3x").has_value());   // Trailing junk.
  EXPECT_FALSE(ParseDouble("x0.3").has_value());
  EXPECT_FALSE(ParseDouble("1e999").has_value());  // Non-finite.
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("inf").has_value());
}

TEST(EnvTest, ParseEnvIntFallsBackOnlyWhenUnset) {
  ASSERT_EQ(unsetenv("COLDSTART_ENV_TEST"), 0);
  EXPECT_EQ(ParseEnvInt("COLDSTART_ENV_TEST", -1, 1, 100), -1);
  ASSERT_EQ(setenv("COLDSTART_ENV_TEST", "37", 1), 0);
  EXPECT_EQ(ParseEnvInt("COLDSTART_ENV_TEST", -1, 1, 100), 37);
  ASSERT_EQ(unsetenv("COLDSTART_ENV_TEST"), 0);
}

TEST(EnvDeathTest, MalformedValuesDieLoudly) {
  // The regression this pins: COLDSTART_THREADS=garbage used to atoi() to 0 and
  // silently mean "default".
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_EQ(setenv("COLDSTART_ENV_TEST", "garbage", 1), 0);
  EXPECT_DEATH(ParseEnvInt("COLDSTART_ENV_TEST", 0, 1, 100),
               "not a valid integer");
  ASSERT_EQ(setenv("COLDSTART_ENV_TEST", "", 1), 0);
  EXPECT_DEATH(ParseEnvInt("COLDSTART_ENV_TEST", 0, 1, 100),
               "not a valid integer");
  EXPECT_DEATH(ParseEnvString("COLDSTART_ENV_TEST", "fallback"),
               "set but empty");
  ASSERT_EQ(setenv("COLDSTART_ENV_TEST", "-3", 1), 0);
  EXPECT_DEATH(ParseEnvInt("COLDSTART_ENV_TEST", 0, 1, 100),
               "outside the allowed range");
  ASSERT_EQ(setenv("COLDSTART_ENV_TEST", "99999999999999999999", 1), 0);
  EXPECT_DEATH(ParseEnvInt("COLDSTART_ENV_TEST", 0, 1, 100),
               "not a valid integer");
  ASSERT_EQ(unsetenv("COLDSTART_ENV_TEST"), 0);
}

TEST(HistogramTest, CdfMonotone) {
  LogHistogram h(1e-2, 1e2);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    h.Add(std::exp(rng.NextGaussian()));
  }
  double prev = 0;
  for (double x = 0.01; x < 100; x *= 1.5) {
    const double c = h.CdfAt(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(h.CdfAt(1e3), 1.0);
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.Row().Cell("a").Cell(int64_t{1});
  t.Row().Cell("long-name").Cell(2.5, 1);
  const std::string out = t.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  TextTable t({"a", "b"});
  t.Row().Cell("x").Cell(int64_t{7});
  EXPECT_EQ(t.RenderCsv(), "a,b\nx,7\n");
}

TEST(TableTest, FormatDoubleSwitchesToScientific) {
  EXPECT_EQ(FormatDouble(0.5, 2), "0.50");
  EXPECT_NE(FormatDouble(1e9, 2).find('e'), std::string::npos);
  // Empty-distribution statistics are NaN by contract; tables must say so
  // explicitly instead of printing a number-like "nan".
  EXPECT_EQ(FormatDouble(std::nan(""), 2), "n/a");
}

// --- The frame every durable binary file shares (common/framed_file.h). ---

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(FramedFileTest, HostileInputIsCorruptNeverOkNeverACrash) {
  const std::filesystem::path dir =
      testing_support::TempPath("coldstart_framed_file_test");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "frame.bin").string();
  constexpr uint64_t kMagic = 0x31765F7473657463ull;  // "ctest_v1".
  const std::string payload = "a small framed payload";

  ASSERT_TRUE(WriteFramedFile(path, kMagic, payload));
  std::string read;
  const char* why = nullptr;
  ASSERT_EQ(ReadFramedFile(path, kMagic, &read, &why), FrameStatus::kOk);
  EXPECT_EQ(read, payload);
  const std::string good = ReadBytes(path);
  ASSERT_EQ(good.size(), 8 + 8 + 4 + payload.size());  // Magic, size, CRC.

  const auto expect_corrupt = [&](const std::string& bytes, const std::string& what) {
    WriteBytes(path, bytes);
    std::string out;
    const char* reason = nullptr;
    EXPECT_EQ(ReadFramedFile(path, kMagic, &out, &reason), FrameStatus::kCorrupt)
        << what;
    EXPECT_NE(reason, nullptr) << what;
  };
  for (size_t len = 0; len < good.size(); ++len) {
    expect_corrupt(good.substr(0, len), "truncated to " + std::to_string(len));
  }
  for (size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string flipped = good;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    expect_corrupt(flipped, "bit " + std::to_string(bit) + " flipped");
  }
  expect_corrupt(good + '\0', "one trailing byte");
  expect_corrupt("not a framed file, just garbage", "garbage");
  std::string huge_size = good;
  const uint64_t size = uint64_t{1} << 63;
  std::memcpy(&huge_size[8], &size, sizeof(size));
  expect_corrupt(huge_size, "size field 2^63");

  std::filesystem::remove(path);
  EXPECT_EQ(ReadFramedFile(path, kMagic, &read, &why), FrameStatus::kMissing);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace coldstart
