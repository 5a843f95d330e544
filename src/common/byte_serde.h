// Minimal byte-buffer serialization for checkpoint and cache payloads.
//
// Checkpoints (checkpoint/checkpoint.h) snapshot live simulation state —
// RNG words, timers, histograms, slab structure — into a flat byte string that
// is CRC-protected (common/framed_file.h) and restored bit-exactly. ByteWriter
// appends fixed-width little-endian fields to an in-memory string; ByteReader
// consumes them in the same order. Floating-point values travel as their
// IEEE-754 bit patterns, so a save/restore round trip is exact (no
// printf/parse detour).
//
// The two classes name their fields alike: w.I64(x) writes x, r.I64(x) reads
// into x. A payload layout is therefore written once, as
//
//   template <class Ar, class Self> static void Layout(Ar& a, Self& self);
//
// which the Save* side calls with a ByteWriter and a const Self and the
// Restore* side with a ByteReader, so the two directions cannot drift apart.
// Restore-only work (validity CHECKs, derived-state rebuilds) sits beside the
// layout, or inside it under `if constexpr (Ar::kReading)`. A field may be
// narrower than its wire width (an int as I64, a bool or enum as U8): both
// directions CHECK that the value survives the conversion.
//
// Readers CHECK-fail on underflow rather than returning errors: the payload
// CRC has already been validated by the time a ByteReader runs, so running out
// of bytes means a writer/reader mismatch — a bug, not bad input. A stored
// element count goes through Count, which on read bounds it by the bytes left
// before anything is allocated, so a CRC-valid but damaged count dies on a
// CHECK, not in the allocator. What is still written twice — the platform's
// running request ends and per-function pod lists, the count framing of the
// streaming sink and the manifest, the trace cache's trailing fields — is
// checked statically instead:
// coldstart_lint's serde-pair rule compares the op sequences of every
// Save*/Restore* (and Write*/Read*) pair in count and type (tools/lint/lint.h).
#ifndef COLDSTART_COMMON_BYTE_SERDE_H_
#define COLDSTART_COMMON_BYTE_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace coldstart {

class ByteWriter {
 public:
  static constexpr bool kReading = false;

  template <class T>
  void U8(T v) { Put<uint8_t>(v); }
  template <class T>
  void U32(T v) { Put<uint32_t>(v); }
  template <class T>
  void U64(T v) { Put<uint64_t>(v); }
  template <class T>
  void I64(T v) { Put<int64_t>(v); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  // Two little-endian words, low then high.
  void I128(__int128 v) { Raw(&v, sizeof(v)); }
  // Length-prefixed byte string.
  void Str(std::string_view s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  // The element count of `c` as U64; see ByteReader::Count.
  template <class C>
  void Count(const C& c, size_t /*min_bytes_per_element*/) { U64(c.size()); }
  // Raw bytes, no length prefix — the reader must know the size.
  void Raw(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <class Wire, class T>
  void Put(T v) {
    const auto wire = static_cast<Wire>(v);
    COLDSTART_CHECK(static_cast<T>(wire) == v);
    Raw(&wire, sizeof(wire));
  }

  std::string buf_;
};

class ByteReader {
 public:
  static constexpr bool kReading = true;

  explicit ByteReader(std::string_view data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  uint8_t U8() {
    COLDSTART_CHECK(p_ < end_);
    return static_cast<uint8_t>(*p_++);
  }
  uint32_t U32() {
    uint32_t v;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v;
    Raw(&v, sizeof(v));
    return v;
  }
  int64_t I64() {
    int64_t v;
    Raw(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v;
    Raw(&v, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint64_t size = U64();
    COLDSTART_CHECK(size <= Remaining());
    std::string s(p_, size);
    p_ += size;
    return s;
  }
  void Raw(void* out, size_t size) {
    COLDSTART_CHECK(size <= Remaining());
    std::memcpy(out, p_, size);
    p_ += size;
  }

  // ByteWriter's field methods, reading into `v`. A stored value that does
  // not fit v's type CHECK-fails.
  template <class T>
  void U8(T& v) { Get<uint8_t>(v); }
  template <class T>
  void U32(T& v) { Get<uint32_t>(v); }
  template <class T>
  void U64(T& v) { Get<uint64_t>(v); }
  template <class T>
  void I64(T& v) { Get<int64_t>(v); }
  void F64(double& v) { Raw(&v, sizeof(v)); }
  void I128(__int128& v) { Raw(&v, sizeof(v)); }
  void Str(std::string& s) { s = Str(); }
  // Reads an element count and resizes `c` to it. Every element takes at
  // least `min_bytes_per_element` bytes of the payload, so a count the bytes
  // left cannot hold CHECK-fails before anything is allocated.
  template <class C>
  void Count(C& c, size_t min_bytes_per_element) {
    const uint64_t n = U64();
    COLDSTART_CHECK(n <= Remaining() / min_bytes_per_element);
    c.resize(n);
  }

  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }

 private:
  template <class Wire, class T>
  void Get(T& v) {
    Wire wire;
    Raw(&wire, sizeof(wire));
    v = static_cast<T>(wire);
    COLDSTART_CHECK(static_cast<Wire>(v) == wire);
  }

  const char* p_;
  const char* end_;
};

// The bytes T::Layout writes for `self`.
template <class T>
std::string SaveLayout(const T& self) {
  ByteWriter w;
  T::Layout(w, self);
  return w.Take();
}

// Reads `bytes` into `self` through T::Layout, which must consume them all.
template <class T>
void RestoreLayout(std::string_view bytes, T& self) {
  ByteReader r(bytes);
  T::Layout(r, self);
  COLDSTART_CHECK(r.AtEnd());
}

}  // namespace coldstart

#endif  // COLDSTART_COMMON_BYTE_SERDE_H_
