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
// Readers CHECK-fail on underflow rather than returning errors: the payload
// CRC has already been validated by the time a ByteReader runs, so running out
// of bytes means a writer/reader mismatch — a bug, not bad input. That bug
// class is also caught statically: coldstart_lint's serde-pair rule compares
// the op sequences of every Save*/Restore* (and Write*/Read*) pair in count
// and type (tools/lint/lint.h).
#ifndef COLDSTART_COMMON_BYTE_SERDE_H_
#define COLDSTART_COMMON_BYTE_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/check.h"

namespace coldstart {

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  // Length-prefixed byte string.
  void Str(std::string_view s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  // Raw bytes, no length prefix — the reader must know the size.
  void Raw(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
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
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
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

  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace coldstart

#endif  // COLDSTART_COMMON_BYTE_SERDE_H_
