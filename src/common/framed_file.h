// The one on-disk frame for every durable binary artifact.
//
// Checkpoint files, the checkpoint manifest, the trace cache and the
// frontier-point cache each store one payload in the same frame:
//
//   magic (u64) | payload size (u64) | CRC32 of the payload (u32) | payload
//
// The magic names the artifact and its format version. The CRC covers only the
// payload; the frame fields are validated structurally. Writes are atomic
// (common/atomic_file.h), so a crash leaves the previous file or the new one.
//
// The reader reports what it found and never decides what happens next: the
// failure policy stays with each caller. Checkpoint and manifest readers abort
// on kCorrupt, since resuming corrupt state would silently diverge; the trace
// and frontier caches log the reason and recompute.
#ifndef COLDSTART_COMMON_FRAMED_FILE_H_
#define COLDSTART_COMMON_FRAMED_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace coldstart {

enum class FrameStatus {
  kOk,       // The payload is intact.
  kMissing,  // `path` does not open.
  kCorrupt,  // It opens but does not validate; `why` says how.
};

// Atomically writes the frame around `payload`. Returns false on I/O failure
// (any previous file at `path` is left intact).
bool WriteFramedFile(const std::string& path, uint64_t magic,
                     std::string_view payload);

// Reads `path` into `payload`. The payload is sized from the file size, never
// from the header, and read once into `payload`'s own buffer. On kCorrupt,
// `why` names the failed check (e.g. "payload CRC mismatch") and `payload`
// holds nothing usable.
FrameStatus ReadFramedFile(const std::string& path, uint64_t magic,
                           std::string* payload, const char** why);

}  // namespace coldstart

#endif  // COLDSTART_COMMON_FRAMED_FILE_H_
