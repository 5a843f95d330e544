// The one on-disk frame for every durable binary artifact.
//
// Checkpoint files, checkpoint segments, the checkpoint manifest, the trace
// cache and the frontier-point cache each store one payload in the same frame:
//
//   magic (u64) | payload size (u64) | CRC32 of the payload (u32) | payload
//
// The magic names the artifact and its format version. The CRC covers only the
// payload; the frame fields are validated structurally. Writes are atomic
// (common/atomic_file.h), so a crash leaves the previous file or the new one.
//
// A payload is written as a list of spans and read front to back, so a record
// table goes to disk from its own vector and comes back into its own vector:
// neither side ever holds a whole-payload copy.
//
// The reader reports what it found and never decides what happens next: the
// failure policy stays with each caller. Checkpoint and manifest readers abort
// on kCorrupt, since resuming corrupt state would silently diverge; the trace
// and frontier caches log the reason and recompute.
#ifndef COLDSTART_COMMON_FRAMED_FILE_H_
#define COLDSTART_COMMON_FRAMED_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace coldstart {

enum class FrameStatus {
  kOk,       // The payload is intact.
  kMissing,  // `path` does not open.
  kCorrupt,  // It opens but does not validate; `why` says how.
};

// Atomically writes the frame around the concatenation of `spans`. The CRC is
// chained over the spans, then the header and the spans go to the file in
// order. Returns false on I/O failure (any previous file at `path` is left
// intact).
bool WriteFramedFile(const std::string& path, uint64_t magic,
                     const std::vector<std::string_view>& spans);

// The one-span call.
inline bool WriteFramedFile(const std::string& path, uint64_t magic,
                            std::string_view payload) {
  return WriteFramedFile(path, magic, std::vector<std::string_view>{payload});
}

// Reads one frame front to back. Each Read lands in the caller's buffer (a
// record table's own vector, say) and extends the CRC; Finish checks it. The
// header is checked at Open against the magic and the file size, so
// Remaining() is a true bound on the payload bytes still to come.
class FrameReader {
 public:
  // kMissing when `path` does not open; kCorrupt (with `why`) when the header
  // does not validate.
  FrameStatus Open(const std::string& path, uint64_t magic, const char** why);

  // The next `size` payload bytes, into `out`. Past the end of the payload, a
  // damaged frame reads as zeros (Finish reports it); an intact one means the
  // writer and reader disagree, and CHECK-fails.
  void Read(void* out, size_t size);
  uint64_t U64() {
    uint64_t v;
    Read(&v, sizeof(v));
    return v;
  }
  uint64_t Remaining() const { return remaining_; }

  // Reads what is left of the payload and says whether it is damaged: a read
  // error or a CRC mismatch. Lets a caller tell damage from a writer/reader
  // bug before acting on a value that cannot be right.
  bool Damaged();

  // kOk when the payload was read to its end and its CRC matches.
  FrameStatus Finish(const char** why);

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  std::unique_ptr<std::FILE, FileCloser> file_;
  uint64_t remaining_ = 0;
  uint32_t expected_crc_ = 0;
  uint32_t crc_ = 0;
  bool read_error_ = false;
};

// Reads `path` into `payload`. The payload is sized from the file size, never
// from the header, and read once into `payload`'s own buffer. On kCorrupt,
// `why` names the failed check (e.g. "payload CRC mismatch") and `payload`
// holds nothing usable.
FrameStatus ReadFramedFile(const std::string& path, uint64_t magic,
                           std::string* payload, const char** why);

}  // namespace coldstart

#endif  // COLDSTART_COMMON_FRAMED_FILE_H_
