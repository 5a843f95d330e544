// CRC32 (IEEE 802.3, polynomial 0xEDB88320) for file-format integrity checks.
//
// Every durable binary file carries a CRC32 over its payload in the shared
// frame (common/framed_file.h), so a torn or bit-flipped file is rejected
// instead of loading silently-wrong state. This is an error-*detection* code,
// not a cryptographic hash; it guards against storage corruption, not
// tampering.
#ifndef COLDSTART_COMMON_CRC32_H_
#define COLDSTART_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace coldstart {

// Extends `crc` (0 for a fresh checksum) over `size` bytes at `data`. Chainable:
// Crc32(b, nb, Crc32(a, na)) equals Crc32 over the concatenation a ++ b, so
// multi-span payloads are checksummed without copying them into one buffer.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

// The kernels behind Crc32. Each has Crc32's contract for any size, so a test
// can pin each against a reference on the CPUs that run it. Crc32 picks one
// once per process: the carry-less kernel where the CPU has it, else
// slicing-by-8.
using Crc32Kernel = uint32_t (*)(const void* data, size_t size, uint32_t crc);
uint32_t Crc32SliceBy8(const void* data, size_t size, uint32_t crc);
// PCLMULQDQ fold-by-4 over whole 16-byte blocks of spans of 64 bytes or more,
// slicing-by-8 for the rest; nullptr where the CPU (or target) lacks it.
Crc32Kernel Crc32CarrylessKernel();

}  // namespace coldstart

#endif  // COLDSTART_COMMON_CRC32_H_
