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

}  // namespace coldstart

#endif  // COLDSTART_COMMON_CRC32_H_
