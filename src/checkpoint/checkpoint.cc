#include "checkpoint/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/byte_serde.h"
#include "common/check.h"
#include "common/framed_file.h"

namespace coldstart::checkpoint {

namespace {

// "cckptv13" / "cmnft_v4" / "ccseg_v1", little-endian (a two-digit version
// takes the underscore's byte). Checkpoint v13 saves each cell's in-flight
// cold-start ready keys and drops the load-decrement event kind: a cold
// start's load leaves its cell's counters when the running event passes its
// ready key, with no event at the ready time. v12 saves each pod's running
// requests' end times in place of its slot count and drops the completion
// event kind and its execution-start field: a request holds its slot until
// its end time, with no event at the end. v11 writes the platform's
// per-(region, cell) state as one cell table, each cell's RNG, id namespaces,
// load, pools and cold-start counters together, where v10 wrote each as its
// own array. Manifest v4 drops each entry's file name: the name is derived
// from (day, shard). Checkpoint v10 keeps day starts and the minute
// tick as pending-event table entries and drops their scalar seq bookkeeping
// from the platform state. v9 made full-trace runs append-only: the sink state holds the four table totals,
// the horizon and the ordered segment list, the rows live in segment files,
// and the payload follows the metadata without its own length word. v8 dropped
// the per-(region, cell) cold-start model frames (the model is pure
// configuration, pinned by the fingerprint) and the arrival stream's
// regenerate mode (every stream serializes its state). v7 dropped the
// write-only per-(region, cell) cold-start and request totals. v6 stores the
// platform's pending events as one table. v5 dropped the always-zero
// days_observed word from each ProfilePrewarmPolicy profile. v4 framed the
// cold-start model layer (per-(region, cell) identity + state blob), the cost
// ledger's 128-bit sums and the per-pod warm-idle accumulator; v3 made the
// LogHistogram latency sum 128-bit fixed point (manifest v3 added
// shards_per_region, layout-unchanged since). Older files encode different
// layouts and are rejected here, named as another format version, rather than
// half-restored.
constexpr uint64_t kCheckpointMagic = 0x33317674706B6363ull;
// The checkpoint magic's first six bytes, "cckptv", shared by every version.
constexpr uint64_t kCheckpointFamilyMask = 0x0000FFFFFFFFFFFFull;
constexpr uint64_t kManifestMagic = 0x34765F74666E6D63ull;
// The manifest magic's first five bytes, "cmnft", shared by every version.
constexpr uint64_t kManifestFamilyMask = 0x000000FFFFFFFFFFull;
constexpr uint64_t kSegmentMagic = 0x31765F6765736363ull;

// The metadata that opens a checkpoint payload: fingerprint, trace mode,
// shard, day and region count.
constexpr size_t kMetaBytes = 8 + 1 + 4 + 8 + 4;

[[noreturn]] void Corrupt(const std::string& path, const char* what) {
  std::fprintf(stderr, "checkpoint: %s: corrupt (%s)\n", path.c_str(), what);
  std::abort();
}

// Judges `path` by its magic alone: this build's `magic`, another version of
// the family the bits under `family_mask` name, or neither.
CheckpointVersion ProbeVersion(const std::string& path, uint64_t magic,
                               uint64_t family_mask) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return CheckpointVersion::kMissing;
  }
  uint64_t found = 0;
  const bool whole =
      static_cast<bool>(in.read(reinterpret_cast<char*>(&found), sizeof(found)));
  if (whole && found == magic) {
    return CheckpointVersion::kCurrent;
  }
  if (whole && ((found ^ magic) & family_mask) == 0) {
    return CheckpointVersion::kOther;
  }
  return CheckpointVersion::kUnrecognized;
}

// A frame read front to back: a missing file is "start fresh"; one that
// does not validate aborts, naming the file. Open, the caller's reads,
// then FinishOrDie.
bool OpenOrDie(const std::string& path, uint64_t magic, FrameReader& reader) {
  const char* why = nullptr;
  const FrameStatus status = reader.Open(path, magic, &why);
  if (status == FrameStatus::kCorrupt) {
    Corrupt(path, why);
  }
  return status == FrameStatus::kOk;
}

void FinishOrDie(const std::string& path, FrameReader& reader) {
  const char* why = nullptr;
  if (reader.Finish(&why) != FrameStatus::kOk) {
    Corrupt(path, why);
  }
}

// `ckpt_day{day}[_r{shard}]{extension}`.
std::string DayFileName(int64_t day, uint32_t shard, const char* extension) {
  char name[64];
  if (shard == kSerialShard) {
    std::snprintf(name, sizeof(name), "ckpt_day%" PRId64 "%s", day, extension);
  } else {
    std::snprintf(name, sizeof(name), "ckpt_day%" PRId64 "_r%u%s", day, shard,
                  extension);
  }
  return name;
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
  return WriteFramedFile(path, kCheckpointMagic, {w.data(), payload});
}

CheckpointVersion ReadCheckpointVersion(const std::string& path) {
  return ProbeVersion(path, kCheckpointMagic, kCheckpointFamilyMask);
}

CheckpointVersion ReadManifestVersion(const std::string& dir) {
  return ProbeVersion(ManifestPath(dir), kManifestMagic, kManifestFamilyMask);
}

bool ReadCheckpointFile(const std::string& path, CheckpointMeta* meta,
                        std::string* payload) {
  FrameReader reader;
  const char* why = nullptr;
  const FrameStatus status = reader.Open(path, kCheckpointMagic, &why);
  if (status == FrameStatus::kMissing) {
    return false;
  }
  if (status == FrameStatus::kCorrupt) {
    Corrupt(path, ReadCheckpointVersion(path) == CheckpointVersion::kOther
                      ? "written in another checkpoint format version"
                      : why);
  }
  char head[kMetaBytes];
  reader.Read(head, sizeof(head));
  payload->resize(reader.Remaining());
  reader.Read(payload->data(), payload->size());
  FinishOrDie(path, reader);
  // The frame CRC already validated every byte.
  ByteReader r(std::string_view(head, sizeof(head)));
  meta->fingerprint = r.U64();
  meta->trace_mode = r.U8();
  meta->shard = r.U32();
  meta->day = r.I64();
  meta->num_regions = r.U32();
  return true;
}

bool WriteSegmentFile(const std::string& path,
                      const std::vector<std::string_view>& spans) {
  return WriteFramedFile(path, kSegmentMagic, spans);
}

void ReadSegmentFile(const std::string& path,
                     const std::function<void(FrameReader&)>& read_payload) {
  FrameReader reader;
  if (!OpenOrDie(path, kSegmentMagic, reader)) {
    Corrupt(path, "referenced segment is missing");
  }
  read_payload(reader);
  FinishOrDie(path, reader);
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
  }
  return WriteFramedFile(ManifestPath(dir), kManifestMagic, w.Take());
}

bool ReadManifest(const std::string& dir, Manifest* manifest) {
  const std::string path = ManifestPath(dir);
  std::string payload;
  const char* why = nullptr;
  const FrameStatus status = ReadFramedFile(path, kManifestMagic, &payload, &why);
  if (status == FrameStatus::kMissing) {
    return false;
  }
  if (status == FrameStatus::kCorrupt) {
    Corrupt(path, ReadManifestVersion(dir) == CheckpointVersion::kOther
                      ? "written in another manifest format version"
                      : why);
  }
  ByteReader r(payload);
  manifest->fingerprint = r.U64();
  manifest->trace_mode = r.U8();
  manifest->num_regions = r.U32();
  manifest->sharded = r.U8() != 0;
  manifest->shards_per_region = r.U32();
  // Each entry holds its shard and day: a CRC-valid count too large for the
  // payload dies on this CHECK, not in the allocator.
  constexpr size_t kMinEntryBytes = 4 + 8;
  const uint64_t count = r.U64();
  COLDSTART_CHECK(count <= r.Remaining() / kMinEntryBytes);
  manifest->entries.resize(count);
  for (ManifestEntry& e : manifest->entries) {
    e.shard = r.U32();
    e.day = r.I64();
  }
  if (!r.AtEnd()) {
    Corrupt(path, "trailing bytes");
  }
  return true;
}

std::string CheckpointFileName(int64_t day, uint32_t shard) {
  return DayFileName(day, shard, ".bin");
}

std::string SegmentFileName(int64_t day, uint32_t shard) {
  return DayFileName(day, shard, ".seg");
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST.bin";
}

}  // namespace coldstart::checkpoint
