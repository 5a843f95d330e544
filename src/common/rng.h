// Deterministic random number generation.
//
// All randomness in the library flows through Rng so that every experiment is exactly
// reproducible from a single 64-bit seed. Substreams (ForkStream) let independent
// components (per-function arrival processes, per-region architecture noise, ...) draw
// without perturbing each other's sequences, which keeps results stable when one
// component changes how many numbers it consumes.
#ifndef COLDSTART_COMMON_RNG_H_
#define COLDSTART_COMMON_RNG_H_

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

  // Advances the stream by n words, exactly as n NextU64() calls would. Lets a
  // caller that does not need a draw's value keep the stream aligned with one
  // that does (one NextGaussian() consumes two words).
  void Discard(int n) {
    for (int i = 0; i < n; ++i) {
      NextU64();
    }
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

  // Standard normal via Box-Muller (no cached spare: keeps the stream length predictable).
  double NextGaussian() {
    const double u1 = NextDoublePositive();
    const double u2 = NextDouble();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586476925286766559 * u2);
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

  // Checkpoint support: the four xoshiro256** state words. RestoreState makes
  // this generator continue the saved stream bit-exactly.
  void SaveState(uint64_t out[4]) const { std::memcpy(out, state_, sizeof(state_)); }
  void RestoreState(const uint64_t in[4]) { std::memcpy(state_, in, sizeof(state_)); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

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
