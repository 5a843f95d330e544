#include "checkpoint/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/atomic_file.h"
#include "common/byte_serde.h"
#include "common/crc32.h"

namespace coldstart::checkpoint {

namespace {

// "cckpt_v8" / "cmnft_v3", little-endian. Checkpoint v8 dropped the
// per-(region, cell) cold-start model frames (the model is pure configuration,
// pinned by the fingerprint) and the arrival stream's regenerate mode (every
// stream serializes its state). v7 dropped the
// write-only per-(region, cell) cold-start and request totals. v6 stores the
// platform's pending events as one table. v5 dropped the always-zero
// days_observed word from each ProfilePrewarmPolicy profile. v4 framed the
// cold-start model layer (per-(region, cell) identity + state blob), the cost
// ledger's 128-bit sums and the per-pod warm-idle accumulator; v3 made the
// LogHistogram latency sum 128-bit fixed point (manifest v3 added
// shards_per_region, layout-unchanged since). Older files encode different
// layouts and are rejected here as "bad magic" rather than half-restored.
constexpr uint64_t kCheckpointMagic = 0x38765F74706B6363ull;
constexpr uint64_t kManifestMagic = 0x33765F74666E6D63ull;

[[noreturn]] void Corrupt(const std::string& path, const char* what) {
  std::fprintf(stderr, "checkpoint: %s: corrupt (%s)\n", path.c_str(), what);
  std::abort();
}

// Shared framing: magic, payload size, payload CRC32, payload bytes. The CRC
// covers only the payload; the frame fields are validated structurally.
bool WriteFramed(const std::string& path, uint64_t magic,
                 const std::string& payload) {
  ByteWriter header;
  header.U64(magic);
  header.U64(payload.size());
  header.U32(Crc32(payload.data(), payload.size()));
  AtomicFile file(path);
  if (!file.ok()) {
    return false;
  }
  file.Write(header.data().data(), header.data().size());
  file.Write(payload.data(), payload.size());
  return file.Commit();
}

// Returns false when `path` does not open (treated as "no checkpoint");
// aborts on any validation failure.
bool ReadFramed(const std::string& path, uint64_t magic, std::string* payload) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    Corrupt(path, "read error");
  }
  constexpr size_t kFrameHeader = 8 + 8 + 4;
  if (bytes.size() < kFrameHeader) {
    Corrupt(path, "truncated header");
  }
  ByteReader r(bytes);
  if (r.U64() != magic) {
    Corrupt(path, "bad magic or version");
  }
  const uint64_t size = r.U64();
  const uint32_t crc = r.U32();
  if (size != bytes.size() - kFrameHeader) {
    Corrupt(path, "truncated payload");
  }
  payload->assign(bytes, kFrameHeader, size);
  if (Crc32(payload->data(), payload->size()) != crc) {
    Corrupt(path, "payload CRC mismatch");
  }
  return true;
}

}  // namespace

bool WriteCheckpointFile(const std::string& path, const CheckpointMeta& meta,
                         const std::string& payload) {
  ByteWriter w;
  w.U64(meta.fingerprint);
  w.U8(meta.trace_mode);
  w.U32(meta.shard);
  w.I64(meta.day);
  w.U32(meta.num_regions);
  w.Str(payload);
  return WriteFramed(path, kCheckpointMagic, w.Take());
}

bool ReadCheckpointFile(const std::string& path, CheckpointMeta* meta,
                        std::string* payload) {
  std::string framed;
  if (!ReadFramed(path, kCheckpointMagic, &framed)) {
    return false;
  }
  // The frame CRC already validated every byte; ByteReader underflow here
  // would be a writer/reader bug and CHECK-fails accordingly.
  ByteReader r(framed);
  meta->fingerprint = r.U64();
  meta->trace_mode = r.U8();
  meta->shard = r.U32();
  meta->day = r.I64();
  meta->num_regions = r.U32();
  *payload = r.Str();
  if (!r.AtEnd()) {
    Corrupt(path, "trailing bytes");
  }
  return true;
}

bool WriteManifest(const std::string& dir, const Manifest& manifest) {
  ByteWriter w;
  w.U64(manifest.fingerprint);
  w.U8(manifest.trace_mode);
  w.U32(manifest.num_regions);
  w.U8(manifest.sharded ? 1 : 0);
  w.U32(manifest.shards_per_region);
  w.U64(manifest.entries.size());
  for (const ManifestEntry& e : manifest.entries) {
    w.U32(e.shard);
    w.I64(e.day);
    w.Str(e.file);
  }
  return WriteFramed(ManifestPath(dir), kManifestMagic, w.Take());
}

bool ReadManifest(const std::string& dir, Manifest* manifest) {
  const std::string path = ManifestPath(dir);
  std::string payload;
  if (!ReadFramed(path, kManifestMagic, &payload)) {
    return false;
  }
  ByteReader r(payload);
  manifest->fingerprint = r.U64();
  manifest->trace_mode = r.U8();
  manifest->num_regions = r.U32();
  manifest->sharded = r.U8() != 0;
  manifest->shards_per_region = r.U32();
  manifest->entries.resize(r.U64());
  for (ManifestEntry& e : manifest->entries) {
    e.shard = r.U32();
    e.day = r.I64();
    e.file = r.Str();
  }
  if (!r.AtEnd()) {
    Corrupt(path, "trailing bytes");
  }
  return true;
}

std::string CheckpointFileName(int64_t day, uint32_t shard) {
  char name[64];
  if (shard == kSerialShard) {
    std::snprintf(name, sizeof(name), "ckpt_day%" PRId64 ".bin", day);
  } else {
    std::snprintf(name, sizeof(name), "ckpt_day%" PRId64 "_r%u.bin", day, shard);
  }
  return name;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST.bin";
}

}  // namespace coldstart::checkpoint
