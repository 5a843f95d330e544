// Deterministic random number generation.
//
// All randomness in the library flows through Rng so that every experiment is exactly
// reproducible from a single 64-bit seed. Substreams (ForkStream) let independent
// components (per-function arrival processes, per-region architecture noise, ...) draw
// without perturbing each other's sequences, which keeps results stable when one
// component changes how many numbers it consumes.
#ifndef COLDSTART_COMMON_RNG_H_
#define COLDSTART_COMMON_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/check.h"

namespace coldstart {

// SplitMix64: fast, high-quality 64-bit mixing; used both as a generator and to derive
// substream seeds from (seed, label) pairs.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The layer tables of the 256-layer normal ziggurat behind Rng::NextGaussian
// (Marsaglia & Tsang 2000, J. Stat. Softw. 5(8)). Every layer has the same
// area. Layer i >= 1 is the box [0, x_i] x [f(x_i), f(x_{i+1})] with
// f(x) = exp(-x^2 / 2), x_1 = kTailStart > x_2 > ... > x_256 = 0; layer 0 is
// [0, x_0] x [0, f(x_1)], where x_0 = area / f(x_1) stands in for the box
// under f up to x_1 plus the tail beyond it. Built once per process from that
// recurrence on first use (a function-local static, so no static-init order
// can observe it unbuilt), then immutable and shared by every generator.
struct ZigguratTables {
  static constexpr int kLayers = 256;
  // x_1 for 256 layers: where the equal-area recurrence closes at x_256 = 0.
  static constexpr double kTailStart = 3.6541528853610088;

  // A 53-bit magnitude m drawn in layer i lies wholly under f, and is
  // accepted at once, when m < accept[i] = floor(x_{i+1} / x_i * 2^53).
  std::array<uint64_t, kLayers> accept;
  // x_i * 2^-53: maps layer i's magnitude m to the abscissa m * scale[i].
  std::array<double, kLayers> scale;
  // f(x_i) for i >= 1; density[0] = 0 is the base layer's floor and
  // density[kLayers] = f(0) = 1. Layer i spans [density[i], density[i+1]].
  std::array<double, kLayers + 1> density;
  double area;  // Of every layer: x_1 f(x_1) plus the tail mass beyond x_1.

  static const ZigguratTables& Get() {
    static const ZigguratTables tables = Build();
    return tables;
  }

 private:
  static ZigguratTables Build();
};

// xoshiro256**-based generator seeded via SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& w : state_) {
      w = SplitMix64(sm);
    }
    // Avoid the all-zero state (cannot occur from SplitMix64 in practice, but cheap to guard).
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
      state_[0] = 0x1ull;
    }
  }

  // Raw 64 uniform bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform double in (0, 1]; safe as a log() argument.
  double NextDoublePositive() { return 1.0 - NextDouble(); }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [0, n). Uses Lemire's multiply-shift rejection-free mapping
  // (bias < 2^-64, irrelevant at our sample counts).
  uint64_t NextBounded(uint64_t n) {
    COLDSTART_CHECK_GT(n, 0u);
    const unsigned __int128 m = static_cast<unsigned __int128>(NextU64()) * n;
    return static_cast<uint64_t>(m >> 64);
  }

  // Bernoulli trial.
  bool NextBool(double p) { return NextDouble() < p; }

  // Standard normal by the 256-layer ziggurat (ZigguratTables). One word gives
  // the layer (bits 0-7), the sign (bit 8) and a 53-bit magnitude (bits
  // 11-63): disjoint bits, since reusing bits across them correlates
  // successive draws (Doornik 2005). About 98.5% of draws end after that one
  // word, with a compare and a multiply. The rest take the slow path: a wedge
  // test (one more word and an exp per attempt; a rejection starts over with
  // a fresh word) or, in the base layer, the tail beyond kTailStart (two
  // words and two logs per attempt). So a draw consumes a variable number of
  // words, and a caller that skips a draw it does not need must still make it
  // to keep the stream aligned.
  double NextGaussian() {
    const ZigguratTables& z = ZigguratTables::Get();
    const uint64_t bits = NextU64();
    const uint64_t magnitude = bits >> 11;
    const size_t layer = bits & 0xFF;
    if (magnitude < z.accept[layer]) {
      const double x = static_cast<double>(magnitude) * z.scale[layer];
      return (bits & 0x100) != 0 ? -x : x;
    }
    return GaussianSlowPath(bits);
  }

  // Exponential with the given rate (mean 1/rate).
  double NextExponential(double rate) {
    COLDSTART_CHECK_GT(rate, 0.0);
    return -std::log(NextDoublePositive()) / rate;
  }

  // Derives an independent generator for the given label. Deterministic in (this stream's
  // seed material, label): forking the same label twice yields identical substreams.
  Rng ForkStream(std::string_view label) const;

  // Derives an independent generator for the given numeric key (e.g. a function id).
  Rng ForkStream(uint64_t key) const;

  // The four xoshiro256** state words.
  void SaveState(uint64_t out[4]) const { std::memcpy(out, state_, sizeof(state_)); }
  // Checkpoint layout (common/byte_serde.h): the state words, raw. A restored
  // generator continues the saved stream bit-exactly.
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self) {
    a.Raw(self.state_, sizeof(self.state_));
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // NextGaussian past the fast accept: `bits` is the word it drew.
  double GaussianSlowPath(uint64_t bits);

  uint64_t state_[4];
};

// Standard normal via Box-Muller: two words, then log, sqrt and cos. Only the
// workload layer draws with it: GeneratePopulation and SamplePoisson's normal
// approximation. Their streams also draw the heavy-tailed popularity and the
// arrival counts, and NextGaussian consumes a variable number of words, so
// moving them to it would re-draw the whole population and every arrival, not
// just their normal noise. Everything else uses Rng::NextGaussian.
inline double BoxMullerGaussian(Rng& rng) {
  const double u1 = rng.NextDoublePositive();
  const double u2 = rng.NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586476925286766559 * u2);
}

// FNV-1a hash of a string, used for stable substream labels and for hashing entity names
// the way the dataset hashes IDs.
uint64_t HashString(std::string_view s);

// Mixes two 64-bit values into one (for composite substream keys).
inline uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  return SplitMix64(x);
}

// Mixes a double by bit pattern: any representable change to the value yields a
// different hash. Shared by every fingerprint that covers floating-point
// configuration (scenario scalars, replay options) so they can never diverge on
// how doubles are canonicalized.
inline uint64_t MixHashDouble(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return MixHash(h, bits);
}

}  // namespace coldstart

#endif  // COLDSTART_COMMON_RNG_H_
