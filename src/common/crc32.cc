#include "common/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace coldstart {
namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

// Slicing-by-8: kTables[0] is the bytewise table; kTables[k][i] is the CRC of
// byte i followed by k zero bytes, so eight table lookups advance the CRC over
// eight bytes at once. Same polynomial, same values as the bytewise loop.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

// Little-endian word at `p`, whatever its alignment (compilers fold this into
// one unaligned load on little-endian targets).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Advances the pre-inverted CRC state `c` over `size` bytes at `p`.
uint32_t SliceBy8(const unsigned char* p, size_t size, uint32_t c) {
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

// Folding with carry-less multiplies (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in the
// bit-reflected domain of 0xEDB88320. Four 128-bit lanes fold 64 bytes a step
// by x^(512±32) mod P, then fold into one lane, one 16-byte block a step by
// x^(128±32) mod P; the last 128 bits reduce to 64, then by Barrett to 32.
// Each constant is shifted left one bit for the reflected product.
alignas(16) constexpr uint64_t kFold512[2] = {0x0154442BD4ull, 0x01C6E41596ull};
alignas(16) constexpr uint64_t kFold128[2] = {0x01751997D0ull, 0x00CCAA009Eull};
alignas(16) constexpr uint64_t kFold64[2] = {0x0163CD6124ull, 0};
// P itself and the Barrett quotient floor(x^64 / P), both reflected.
alignas(16) constexpr uint64_t kBarrett[2] = {0x01DB710641ull, 0x01F7011641ull};

__m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds `x` forward past the next 128 bits by the constant pair `k` and adds
// `next` there.
__attribute__((target("pclmul"))) __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
      next);
}

// Advances the pre-inverted state `c` over `size` bytes at `p`; `size` is a
// multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldBy4(const unsigned char* p,
                                                          size_t size, uint32_t c) {
  __m128i x1 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  size -= 64;
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold512));
  for (; size >= 64; p += 64, size -= 64) {
    x1 = Fold(x1, k, Load128(p));
    x2 = Fold(x2, k, Load128(p + 16));
    x3 = Fold(x3, k, Load128(p + 32));
    x4 = Fold(x4, k, Load128(p + 48));
  }
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold128));
  x1 = Fold(x1, k, x2);
  x1 = Fold(x1, k, x3);
  x1 = Fold(x1, k, x4);
  for (; size >= 16; p += 16, size -= 16) {
    x1 = Fold(x1, k, Load128(p));
  }
  // 128 bits to 64: fold the low half onto the high one, then the low 32 bits
  // of that onto the rest.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00));
  // Barrett: the quotient's low 32 bits times P, added, leave the remainder
  // in bits 32-63.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

uint32_t Carryless(const void* data, size_t size, uint32_t crc) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  if (size >= 64) {
    const size_t blocks = size & ~size_t{15};
    c = FoldBy4(p, blocks, c);
    p += blocks;
    size -= blocks;
  }
  return SliceBy8(p, size, c) ^ 0xFFFFFFFFu;
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32SliceBy8(const void* data, size_t size, uint32_t crc) {
  return SliceBy8(static_cast<const unsigned char*>(data), size, crc ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

Crc32Kernel Crc32CarrylessKernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return Carryless;
  }
#endif
  return nullptr;
}

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  static const Crc32Kernel kernel = [] {
    const Crc32Kernel carryless = Crc32CarrylessKernel();
    return carryless != nullptr ? carryless : Crc32SliceBy8;
  }();
  return kernel(data, size, crc);
}

}  // namespace coldstart
