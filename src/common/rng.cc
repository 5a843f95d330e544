#include "common/rng.h"

#include <array>
#include <cmath>

namespace coldstart {

ZigguratTables ZigguratTables::Build() {
  ZigguratTables t{};
  const double r = kTailStart;
  const double f_r = std::exp(-0.5 * r * r);
  // The tail mass beyond r is sqrt(pi / 2) erfc(r / sqrt(2)).
  t.area = r * f_r + 1.2533141373155002512 * std::erfc(r * 0.70710678118654752440);
  std::array<double, kLayers + 1> x{};
  x[0] = t.area / f_r;
  x[1] = r;
  t.density[0] = 0.0;
  t.density[1] = f_r;
  // Layer i has width x_i and area `area`, so its top is
  // f(x_{i+1}) = area / x_i + f(x_i).
  for (int i = 1; i + 1 < kLayers; ++i) {
    x[i + 1] = std::sqrt(-2.0 * std::log(t.area / x[i] + t.density[i]));
    t.density[i + 1] = std::exp(-0.5 * x[i + 1] * x[i + 1]);
  }
  x[kLayers] = 0.0;
  t.density[kLayers] = 1.0;
  for (int i = 0; i < kLayers; ++i) {
    t.accept[i] = static_cast<uint64_t>(x[i + 1] / x[i] * 0x1.0p53);
    t.scale[i] = x[i] * 0x1.0p-53;
  }
  return t;
}

double Rng::GaussianSlowPath(uint64_t bits) {
  constexpr double r = ZigguratTables::kTailStart;
  const ZigguratTables& z = ZigguratTables::Get();
  for (;;) {
    const uint64_t magnitude = bits >> 11;
    const size_t layer = bits & 0xFF;
    double x = static_cast<double>(magnitude) * z.scale[layer];
    if (layer == 0 && x >= r) {
      // Past the base layer's box: the tail beyond r, by Marsaglia's
      // exponential rejection.
      double y;
      do {
        x = -std::log(NextDoublePositive()) / r;
        y = -std::log(NextDoublePositive());
      } while (y + y < x * x);
      x += r;
    } else if (layer != 0 && magnitude >= z.accept[layer] &&
               !(z.density[layer] +
                     NextDouble() * (z.density[layer + 1] - z.density[layer]) <
                 std::exp(-0.5 * x * x))) {
      bits = NextU64();  // Outside the curve in the wedge: draw afresh.
      continue;
    }
    return (bits & 0x100) != 0 ? -x : x;
  }
}

uint64_t HashString(std::string_view s) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime.
  }
  return h;
}

Rng Rng::ForkStream(std::string_view label) const {
  // Combine this stream's state with the label hash; the state itself is untouched.
  uint64_t material = state_[0] ^ Rotl(state_[2], 13);
  return Rng(MixHash(material, HashString(label)));
}

Rng Rng::ForkStream(uint64_t key) const {
  uint64_t material = state_[0] ^ Rotl(state_[2], 13);
  return Rng(MixHash(material, key));
}

}  // namespace coldstart
