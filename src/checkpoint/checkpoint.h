// Crash-safe checkpoint files for month-scale runs.
//
// A checkpoint directory holds one file per committed (day, shard) snapshot,
// the segment files of full-trace runs, and a manifest naming the latest
// committed file per shard. All use the shared frame (common/framed_file.h:
// magic, size, CRC32, payload, written atomically), so a kill at any instant
// leaves either the previous consistent state or the new one — never a torn
// file. The payload bytes themselves are produced by core::Experiment (sim
// clock + policy blob + sink state + platform state); this module only lays
// out the metadata, names the files and sets the failure policy.
//
// Full-trace runs are append-only: each commit writes the rows the shard's
// record tables gained since its previous commit as one immutable segment
// (ckpt_day{d}[_r{s}].seg), and the day's checkpoint file lists the shard's
// segments in order instead of holding the tables. A commit goes segment →
// checkpoint file → manifest, so a kill leaves at most an orphan segment that
// no committed manifest references. Resume never reads it, and the re-run of
// that day rewrites it with identical bytes.
//
// Failure policy: a checkpoint or referenced segment that exists but does not
// validate (bad magic, short file, CRC mismatch, wrong version) aborts loudly,
// naming the file, and so does a referenced segment that is missing —
// resuming from corrupt state would silently diverge from the uninterrupted
// run, the one thing a checkpoint must never do. A checkpoint file or manifest
// that simply does not exist returns false ("start fresh").
#ifndef COLDSTART_CHECKPOINT_CHECKPOINT_H_
#define COLDSTART_CHECKPOINT_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/framed_file.h"

namespace coldstart::checkpoint {

// Shard id of a serial (unsharded) run's single checkpoint stream.
inline constexpr uint32_t kSerialShard = 0xffffffffu;

struct CheckpointMeta {
  uint64_t fingerprint = 0;  // ScenarioConfig::Fingerprint() of the run.
  uint8_t trace_mode = 0;    // core::TraceMode of the run's sink.
  // region * shards_per_region + cell group, or kSerialShard.
  uint32_t shard = kSerialShard;
  int64_t day = 0;           // Completed days: state is at day * kDay - 1.
  uint32_t num_regions = 0;
};

// Atomically writes meta + payload, the payload as its own span. Returns false
// on I/O failure (the previous checkpoint, if any, is left intact).
bool WriteCheckpointFile(const std::string& path, const CheckpointMeta& meta,
                         const std::string& payload);

// Reads and validates `path`. Returns false when the file does not exist;
// aborts (loudly, naming the file) when it exists but is corrupt or in another
// format version.
bool ReadCheckpointFile(const std::string& path, CheckpointMeta* meta,
                        std::string* payload);

// A checkpoint file's format version, judged by its magic alone: the first
// six bytes name a checkpoint file, the last two its format version. A driver
// asks before resuming, so a directory an older (or newer) build wrote is
// refused as such rather than aborted as corrupt.
enum class CheckpointVersion {
  kMissing,       // The file does not open.
  kCurrent,       // This build's format; ReadCheckpointFile checks the rest.
  kOther,         // A checkpoint file of another format version.
  kUnrecognized,  // No magic of the family at all: its reader aborts.
};
CheckpointVersion ReadCheckpointVersion(const std::string& path);
// The same probe for the manifest in `dir`: its first five bytes name a
// manifest, the last three its format version.
CheckpointVersion ReadManifestVersion(const std::string& dir);

// Atomically writes one segment whose payload is the concatenation of
// `spans`. Returns false on I/O failure.
bool WriteSegmentFile(const std::string& path, const std::vector<std::string_view>& spans);

// Reads the segment at `path` through `read_payload`, which consumes the
// payload and may stop early once it finds the frame damaged
// (FrameReader::Damaged). Aborts, naming the file, when the segment is
// missing, damaged, or not read to its end.
void ReadSegmentFile(const std::string& path,
                     const std::function<void(FrameReader&)>& read_payload);

// The latest committed checkpoint per shard. Rewritten atomically after every
// shard commit; shards of a sharded run may sit at different days. A shard
// with no entry restarts from day 0. An entry names its checkpoint file only
// through (day, shard): the file is CheckpointFileName(day, shard) in the
// checkpoint directory, so a manifest cannot point a resume at any other path.
struct ManifestEntry {
  uint32_t shard = kSerialShard;
  int64_t day = 0;
};

struct Manifest {
  uint64_t fingerprint = 0;
  uint8_t trace_mode = 0;
  uint32_t num_regions = 0;
  bool sharded = false;
  // Sub-region shard fan-out of the checkpointed run: each region's functions
  // were split into this many capacity-cell groups (1 = plain region sharding).
  // A resume must adopt the same geometry — shard ids are region * K + group,
  // so entries written under a different K do not line up and are rejected.
  uint32_t shards_per_region = 1;
  std::vector<ManifestEntry> entries;
};

bool WriteManifest(const std::string& dir, const Manifest& manifest);
// Returns false when `dir` has no manifest; aborts on a corrupt one or one in
// another format version.
bool ReadManifest(const std::string& dir, Manifest* manifest);

// Canonical file names for a (day, shard) snapshot and for the segment that
// commit wrote, within the directory.
std::string CheckpointFileName(int64_t day, uint32_t shard);
std::string SegmentFileName(int64_t day, uint32_t shard);
std::string ManifestPath(const std::string& dir);

}  // namespace coldstart::checkpoint

#endif  // COLDSTART_CHECKPOINT_CHECKPOINT_H_
