#include "trace/binary_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

#include "common/atomic_file.h"
#include "common/crc32.h"

namespace coldstart::trace {

namespace {

// v4 added the per-region aggregate block and whole-file size validation.
// v5 adds a CRC32 over every post-header byte (in reserved0) and atomic
// (tmp + fsync + rename) writes, so a torn or bit-flipped cache file is
// rejected loudly instead of feeding corrupt records into an analysis.
// v6 appends the resource-cost ledger as an opaque length-prefixed blob
// (cost_blob_size in the header) so cache hits restore cost data too.
constexpr uint64_t kMagic = 0x434C5342'00000006ull;  // "CSLB" + format version.

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

struct Header {
  uint64_t magic = kMagic;
  uint64_t horizon = 0;
  uint64_t request_count = 0;
  uint64_t cold_start_count = 0;
  uint64_t function_count = 0;
  uint64_t pod_count = 0;
  // Regions covered by the aggregate block; 0 = no block present.
  uint64_t aggregate_region_count = 0;
  // Bytes of the opaque cost-ledger blob trailing the aggregate block (v6);
  // 0 = no blob.
  uint64_t cost_blob_size = 0;
  uint32_t request_size = sizeof(RequestRecord);
  uint32_t cold_start_size = sizeof(ColdStartRecord);
  uint32_t function_size = sizeof(FunctionRecord);
  uint32_t pod_size = sizeof(PodLifetimeRecord);
  // CRC32 over every byte after the header, in file order (v5). The second
  // word stays reserved and keeps sizeof(Header) == 88 with no trailing
  // padding, so fwrite of the whole struct never emits indeterminate bytes.
  uint32_t payload_crc = 0;
  uint32_t reserved1 = 0;
};
static_assert(sizeof(Header) == 8 * sizeof(uint64_t) + 6 * sizeof(uint32_t),
              "Header must be padding-free: it is written raw to disk");

// total += count * size, rejecting any intermediate uint64 overflow (a corrupt
// header must fail the size check, not wrap around it).
bool AccumulateArrayBytes(uint64_t* total, uint64_t count, uint64_t size) {
  if (count != 0 && size > UINT64_MAX / count) {
    return false;
  }
  const uint64_t part = count * size;
  if (part > UINT64_MAX - *total) {
    return false;
  }
  *total += part;
  return true;
}

// Exact on-disk size implied by a header; used to reject truncated or corrupt files
// before any table count is turned into an allocation.
bool ExpectedFileSize(const Header& h, uint64_t* size) {
  uint64_t total = sizeof(Header);
  if (!AccumulateArrayBytes(&total, h.request_count, sizeof(RequestRecord)) ||
      !AccumulateArrayBytes(&total, h.cold_start_count, sizeof(ColdStartRecord)) ||
      !AccumulateArrayBytes(&total, h.function_count, sizeof(FunctionRecord)) ||
      !AccumulateArrayBytes(&total, h.pod_count, sizeof(PodLifetimeRecord))) {
    return false;
  }
  if (h.aggregate_region_count > 0) {
    if (!AccumulateArrayBytes(&total, h.aggregate_region_count,
                              kNumRegionSeries * sizeof(int64_t)) ||
        !AccumulateArrayBytes(&total, 1, sizeof(uint64_t))) {
      return false;
    }
  }
  if (!AccumulateArrayBytes(&total, h.cost_blob_size, 1)) {
    return false;
  }
  *size = total;
  return true;
}

template <typename T>
bool WriteArray(AtomicFile& f, const std::vector<T>& v) {
  if (v.empty()) {
    return true;
  }
  return f.Write(v.data(), v.size() * sizeof(T));
}

// Extends `crc` over the bytes WriteArray would emit.
template <typename T>
uint32_t CrcArray(const std::vector<T>& v, uint32_t crc) {
  return v.empty() ? crc : Crc32(v.data(), v.size() * sizeof(T), crc);
}

template <typename T>
bool ReadArray(std::FILE* f, uint64_t count, std::vector<T>& v) {
  v.resize(count);
  if (count == 0) {
    return true;
  }
  return std::fread(v.data(), sizeof(T), count, f) == count;
}

}  // namespace

bool WriteBinaryTrace(const TraceStore& store, const std::string& path,
                      const TraceAggregates* aggregates) {
  Header h;
  h.horizon = static_cast<uint64_t>(store.horizon());
  h.request_count = store.requests().size();
  h.cold_start_count = store.cold_starts().size();
  h.function_count = store.functions().size();
  h.pod_count = store.pods().size();
  h.aggregate_region_count =
      aggregates != nullptr ? aggregates->region_series[0].size() : 0;
  h.cost_blob_size = aggregates != nullptr ? aggregates->cost_ledger.size() : 0;
  // Every payload span is in memory, so the CRC chains over them before a
  // single byte hits disk — same order the spans are written below.
  uint32_t crc = CrcArray(store.requests(), 0);
  crc = CrcArray(store.cold_starts(), crc);
  crc = CrcArray(store.functions(), crc);
  crc = CrcArray(store.pods(), crc);
  if (h.aggregate_region_count > 0) {
    for (const auto& series : aggregates->region_series) {
      if (series.size() != h.aggregate_region_count) {
        return false;
      }
      crc = CrcArray(series, crc);
    }
    crc = Crc32(&aggregates->events_processed, sizeof(uint64_t), crc);
  }
  if (h.cost_blob_size > 0) {
    crc = Crc32(aggregates->cost_ledger.data(), aggregates->cost_ledger.size(), crc);
  }
  h.payload_crc = crc;

  // Atomic replacement: a crash mid-write leaves the previous cache file (or
  // nothing), never a truncated one at the final path.
  AtomicFile f(path);
  if (!f.ok() || !f.Write(&h, sizeof(h))) {
    return false;
  }
  if (!WriteArray(f, store.requests()) || !WriteArray(f, store.cold_starts()) ||
      !WriteArray(f, store.functions()) || !WriteArray(f, store.pods())) {
    return false;
  }
  if (h.aggregate_region_count > 0) {
    for (const auto& series : aggregates->region_series) {
      if (!WriteArray(f, series)) {
        return false;
      }
    }
    if (!f.Write(&aggregates->events_processed, sizeof(uint64_t))) {
      return false;
    }
  }
  if (h.cost_blob_size > 0 &&
      !f.Write(aggregates->cost_ledger.data(), aggregates->cost_ledger.size())) {
    return false;
  }
  return f.Commit();
}

bool ReadBinaryTrace(const std::string& path, TraceStore& store,
                     TraceAggregates* aggregates) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return false;
  }
  Header h;
  if (std::fread(&h, sizeof(h), 1, f.get()) != 1 || h.magic != kMagic ||
      h.request_size != sizeof(RequestRecord) || h.cold_start_size != sizeof(ColdStartRecord) ||
      h.function_size != sizeof(FunctionRecord) || h.pod_size != sizeof(PodLifetimeRecord)) {
    return false;
  }
  // Validate the header-supplied counts against the actual file size before sizing
  // a single allocation from them: a corrupt count would otherwise demand a
  // multi-gigabyte resize, and a truncated file would fail only mid-read.
  uint64_t expected = 0;
  if (!ExpectedFileSize(h, &expected)) {
    return false;
  }
  // std::filesystem::file_size rather than ftell: long is 32-bit on some ABIs and
  // a full-scale request table easily exceeds 2 GiB.
  std::error_code ec;
  const uint64_t actual = std::filesystem::file_size(path, ec);
  if (ec || actual != expected) {
    return false;  // Truncated, or trailing bytes the header does not account for.
  }
  std::vector<RequestRecord> requests;
  std::vector<ColdStartRecord> cold_starts;
  std::vector<FunctionRecord> functions;
  std::vector<PodLifetimeRecord> pods;
  if (!ReadArray(f.get(), h.request_count, requests) ||
      !ReadArray(f.get(), h.cold_start_count, cold_starts) ||
      !ReadArray(f.get(), h.function_count, functions) ||
      !ReadArray(f.get(), h.pod_count, pods)) {
    return false;
  }
  TraceAggregates agg;
  if (h.aggregate_region_count > 0) {
    for (auto& series : agg.region_series) {
      if (!ReadArray(f.get(), h.aggregate_region_count, series)) {
        return false;
      }
    }
    if (std::fread(&agg.events_processed, sizeof(uint64_t), 1, f.get()) != 1) {
      return false;
    }
  }
  if (h.cost_blob_size > 0) {
    agg.cost_ledger.resize(h.cost_blob_size);
    if (std::fread(agg.cost_ledger.data(), 1, h.cost_blob_size, f.get()) !=
        h.cost_blob_size) {
      return false;
    }
  }
  // The size check above already pinned the payload length; confirm we are exactly
  // at EOF so a short read cannot slip through.
  if (std::fgetc(f.get()) != EOF) {
    return false;
  }
  // Validate the payload CRC (v5) over the spans just read, in file order. A
  // mismatch means storage corruption — reject loudly, naming the file, and
  // let the caller fall back to a fresh run.
  uint32_t crc = CrcArray(requests, 0);
  crc = CrcArray(cold_starts, crc);
  crc = CrcArray(functions, crc);
  crc = CrcArray(pods, crc);
  if (h.aggregate_region_count > 0) {
    for (const auto& series : agg.region_series) {
      crc = CrcArray(series, crc);
    }
    crc = Crc32(&agg.events_processed, sizeof(uint64_t), crc);
  }
  if (h.cost_blob_size > 0) {
    crc = Crc32(agg.cost_ledger.data(), agg.cost_ledger.size(), crc);
  }
  if (crc != h.payload_crc) {
    std::fprintf(stderr,
                 "binary trace %s: payload CRC mismatch (file corrupt), "
                 "ignoring cached trace\n",
                 path.c_str());
    return false;
  }
  for (const auto& fn : functions) {
    store.AddFunction(fn);
  }
  for (const auto& r : requests) {
    store.AddRequest(r);
  }
  for (const auto& c : cold_starts) {
    store.AddColdStart(c);
  }
  for (const auto& p : pods) {
    store.AddPodLifetime(p);
  }
  store.set_horizon(static_cast<SimTime>(h.horizon));
  if (aggregates != nullptr) {
    *aggregates = std::move(agg);
  }
  return true;
}

}  // namespace coldstart::trace
