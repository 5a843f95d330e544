#include "workload/replay_source.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "trace/csv_util.h"

namespace coldstart::workload {

namespace {

using trace::csv_internal::FilePtr;
using trace::csv_internal::IsBlankLine;
using trace::csv_internal::OpenRead;
using trace::csv_internal::OpenWrite;
using trace::csv_internal::ParseDouble;
using trace::csv_internal::ParseI64;
using trace::csv_internal::ParseU64;
using trace::csv_internal::SetError;
using trace::csv_internal::SplitCsvLine;

double Hash01(uint64_t h) {
  uint64_t s = h;
  return static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;
}

// "R3" (1-based, as RegionName renders) -> 2. Anything else is an opaque key.
bool ParseLiteralRegion(const std::string& s, uint64_t& out) {
  unsigned r = 0;
  char tail = '\0';
  if (std::sscanf(s.c_str(), "R%u%c", &r, &tail) != 1 || r == 0) {
    return false;
  }
  out = r - 1;
  return true;
}

}  // namespace

ReplaySource::ReplaySource(std::string name, std::vector<RawEvent> events,
                           ReplayOptions options)
    : name_(std::move(name)), events_(std::move(events)), options_(options) {
  // Keep the recorded stream time-ordered so windowing can early-exit; the final
  // canonical (time, function) order is established per-Arrivals() call, after
  // remapping.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const RawEvent& a, const RawEvent& b) { return a.time < b.time; });
}

std::unique_ptr<ReplaySource> ReplaySource::FromArrivalsCsv(const std::string& path,
                                                            ReplayOptions options,
                                                            trace::CsvError* error) {
  std::vector<ArrivalEvent> arrivals;
  if (!ReadArrivalsCsv(path, arrivals, error)) {
    return nullptr;
  }
  std::vector<RawEvent> events;
  events.reserve(arrivals.size());
  for (const ArrivalEvent& a : arrivals) {
    events.push_back(RawEvent{a.time, a.function, kNoRegion, /*mapped=*/true});
  }
  return std::unique_ptr<ReplaySource>(
      new ReplaySource("replay:arrivals", std::move(events), options));
}

std::unique_ptr<ReplaySource> ReplaySource::FromRequestsCsv(const std::string& path,
                                                            ReplayOptions options,
                                                            trace::CsvError* error) {
  trace::TraceStore store;
  if (!trace::ReadRequestsCsv(path, store, error)) {
    return nullptr;
  }
  std::vector<RawEvent> events;
  events.reserve(store.requests().size());
  for (const trace::RequestRecord& r : store.requests()) {
    events.push_back(RawEvent{r.timestamp, r.function_id, r.region, /*mapped=*/true});
  }
  return std::unique_ptr<ReplaySource>(
      new ReplaySource("replay:requests", std::move(events), options));
}

std::unique_ptr<ReplaySource> ReplaySource::FromExternalCsv(const std::string& path,
                                                            ReplayOptions options,
                                                            trace::CsvError* error) {
  FilePtr f = OpenRead(path);
  if (f == nullptr) {
    SetError(error, 0, "cannot open '" + path + "'");
    return nullptr;
  }
  COLDSTART_CHECK_GT(options.timestamp_scale, 0.0);
  std::vector<RawEvent> events;
  char line[4096];
  int64_t lineno = 0;
  bool maybe_header = true;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++lineno;
    if (IsBlankLine(line)) {
      continue;
    }
    // A physical line longer than the buffer would silently split into bogus
    // extra rows; reject it instead.
    if (std::strchr(line, '\n') == nullptr && !std::feof(f.get())) {
      SetError(error, lineno,
               "line exceeds " + std::to_string(sizeof(line) - 2) + " characters");
      return nullptr;
    }
    const auto fields = SplitCsvLine(line);
    double ts = 0;
    if (maybe_header && !fields.empty() && !ParseDouble(fields[0], ts)) {
      maybe_header = false;  // "timestamp,function,region,duration" title row.
      continue;
    }
    maybe_header = false;
    if (fields.size() < 2) {
      SetError(error, lineno,
               "expected at least 2 fields (timestamp,function), got " +
                   std::to_string(fields.size()));
      return nullptr;
    }
    if (!ParseDouble(fields[0], ts) || !std::isfinite(ts) || ts < 0) {
      SetError(error, lineno,
               "timestamp '" + fields[0] + "' is not a non-negative number");
      return nullptr;
    }
    if (fields[1].empty()) {
      SetError(error, lineno, "empty function field");
      return nullptr;
    }
    // Guard the scaled clock against int64 overflow (llround on an
    // out-of-range double is unspecified): a mis-set timestamp_scale must fail
    // loudly, not replay as zero arrivals.
    const double scaled_ts = ts * options.timestamp_scale;
    if (scaled_ts >= 9.2e18) {
      SetError(error, lineno, "timestamp '" + fields[0] + "' x timestamp_scale " +
                                  std::to_string(options.timestamp_scale) +
                                  " overflows the microsecond clock");
      return nullptr;
    }
    RawEvent e;
    e.time = static_cast<SimTime>(std::llround(scaled_ts));
    e.function_key = HashString(fields[1]);
    e.region_key = kNoRegion;
    e.mapped = false;
    if (fields.size() >= 3 && !fields[2].empty()) {
      if (!ParseLiteralRegion(fields[2], e.region_key)) {
        e.region_key = HashString(fields[2]);
      }
    }
    // The optional duration column is ignored: execution profiles come from the
    // population function the key is remapped onto.
    events.push_back(e);
  }
  if (std::ferror(f.get()) != 0) {
    SetError(error, lineno, "read error");
    return nullptr;
  }
  return std::unique_ptr<ReplaySource>(
      new ReplaySource("replay:external", std::move(events), options));
}

uint64_t ReplaySource::Fingerprint() const {
  // Hashes the loaded events themselves (not the file path): two configs replaying
  // different traces — or the same trace under different clip/scale options —
  // must never share a trace-cache entry.
  uint64_t h = HashString("workload-source:replay-v1");
  h = MixHash(h, HashString(name_));
  h = MixHash(h, static_cast<uint64_t>(options_.window_begin));
  h = MixHash(h, static_cast<uint64_t>(options_.window_end));
  h = MixHashDouble(h, options_.rate_scale);
  h = MixHashDouble(h, options_.timestamp_scale);
  h = MixHash(h, events_.size());
  for (const RawEvent& e : events_) {
    h = MixHash(h, static_cast<uint64_t>(e.time));
    h = MixHash(h, e.function_key);
    h = MixHash(h, e.region_key);
    h = MixHash(h, e.mapped ? 1 : 0);
  }
  return h;
}

// Day-chunked window over the source's time-sorted raw buffer. One forward
// cursor: raw events are consumed in order, remapped onto the population, and
// rate-scaled by the per-(seed, raw-index) hash — the identical per-event
// decisions the eager path made, split at day boundaries.
class ReplaySource::Stream final : public ArrivalStream {
 public:
  // Holds pointers into the population's heap buffers (not the Population object
  // itself), so the caller may move the Population around after opening — only
  // destroying or reallocating it invalidates the stream.
  Stream(const ReplaySource& source, const Population& pop, size_t num_regions,
         SimTime horizon, uint64_t seed, std::optional<trace::RegionId> region,
         std::optional<CellSlice> cell_slice)
      : source_(&source),
        functions_(pop.functions.data()),
        num_functions_(pop.functions.size()),
        region_begin_(pop.region_begin.data()),
        num_regions_(num_regions),
        horizon_(horizon),
        region_(region),
        cell_slice_(std::move(cell_slice)),
        num_days_(NumDayChunks(horizon)),
        // Remapping is salted independently of the seed: the same trace replayed
        // onto the same population hits the same functions across platform-seed
        // sweeps.
        remap_salt_(HashString("replay-function-remap")),
        rate_salt_(MixHash(seed, HashString("replay-rate-scale"))) {
    const ReplayOptions& options = source_->options_;
    COLDSTART_CHECK_GE(options.rate_scale, 0.0);
    whole_copies_ = static_cast<int>(options.rate_scale);
    extra_prob_ = options.rate_scale - whole_copies_;
  }

  bool NextChunk(ArrivalChunk* chunk) override {
    if (next_day_ >= num_days_) {
      return false;
    }
    const int64_t day = next_day_++;
    chunk->day = day;
    chunk->events.clear();
    const ReplayOptions& options = source_->options_;
    const std::vector<RawEvent>& events = source_->events_;
    const SimTime day_end = std::min((day + 1) * kDay, horizon_);
    while (next_ < events.size()) {
      const RawEvent& e = events[next_];
      if (e.time < options.window_begin) {
        ++next_;
        continue;
      }
      if (options.window_end > 0 && e.time >= options.window_end) {
        next_ = events.size();  // events is time-sorted: nothing further fits.
        break;
      }
      const SimTime t = e.time - options.window_begin;
      if (t >= horizon_) {
        next_ = events.size();
        break;
      }
      if (t >= day_end) {
        break;  // Belongs to a later chunk; leave for the next pull.
      }
      const trace::FunctionId fid = Remap(e);
      const size_t raw_index = next_++;  // The rate hash is keyed by raw index.
      if (region_.has_value() && functions_[fid].region != *region_) {
        continue;  // Filtered out before the rate draw (the hash is stateless).
      }
      if (cell_slice_.has_value() && !cell_slice_->Contains(fid)) {
        continue;  // Same stateless filter, refined to the shard's cell range.
      }
      int copies = whole_copies_;
      if (extra_prob_ > 0 &&
          Hash01(MixHash(rate_salt_, raw_index)) < extra_prob_) {
        ++copies;
      }
      for (int c = 0; c < copies; ++c) {
        chunk->events.push_back(ArrivalEvent{t, fid});
      }
    }
    SortDayChunk(*chunk);
    return true;
  }

  // Checkpoint support: everything else is construction-derived (salts, copy
  // counts, borrowed buffers) — only the raw-buffer cursor and day counter move.
  template <class Ar, class Self>
  static void Layout(Ar& a, Self& self) {
    a.U64(self.next_);
    a.I64(self.next_day_);
    COLDSTART_CHECK_LE(self.next_, self.source_->events_.size());
    COLDSTART_CHECK_LE(self.next_day_, self.num_days_);
  }
  bool SaveState(ByteWriter& w) const override {
    Layout(w, *this);
    return true;
  }
  bool RestoreState(ByteReader& r) override {
    Layout(r, *this);
    return true;
  }

 private:
  trace::FunctionId Remap(const RawEvent& e) const {
    const size_t num_functions = num_functions_;
    if (e.mapped && e.function_key < num_functions) {
      return static_cast<trace::FunctionId>(e.function_key);
    }
    // Remap the opaque key onto the population: region-pinned keys land in
    // their region's id range, everything else spreads over all functions.
    // (Also reached for `mapped` ids from a trace recorded under a larger
    // population — degraded but total, rather than a crash.)
    const uint64_t key = MixHash(remap_salt_, e.function_key);
    size_t lo = 0;
    size_t span = num_functions;
    if (e.region_key != kNoRegion) {
      const size_t region =
          e.region_key < num_regions_
              ? static_cast<size_t>(e.region_key)
              : MixHash(remap_salt_, e.region_key) % num_regions_;
      lo = region_begin_[region];
      span = region_begin_[region + 1] - lo;
      if (span == 0) {  // Region has no functions at this scale.
        lo = 0;
        span = num_functions;
      }
    }
    return static_cast<trace::FunctionId>(lo + key % span);
  }

  const ReplaySource* source_;
  const FunctionSpec* functions_;
  size_t num_functions_;
  const uint32_t* region_begin_;
  size_t num_regions_;
  SimTime horizon_;
  std::optional<trace::RegionId> region_;
  std::optional<CellSlice> cell_slice_;
  int64_t num_days_;
  uint64_t remap_salt_;
  uint64_t rate_salt_;
  int whole_copies_ = 0;
  double extra_prob_ = 0;
  size_t next_ = 0;      // Cursor into source_->events_ (raw index: rate hash key).
  int64_t next_day_ = 0;
};

std::unique_ptr<ArrivalStream> ReplaySource::OpenStream(
    const Population& pop, const std::vector<RegionProfile>& profiles,
    const Calendar& calendar, uint64_t seed,
    std::optional<trace::RegionId> region,
    std::optional<CellSlice> cell_slice) const {
  COLDSTART_CHECK(!pop.functions.empty());
  COLDSTART_CHECK_EQ(pop.region_begin.size(), profiles.size() + 1);
  return std::make_unique<Stream>(*this, pop, profiles.size(), calendar.horizon(),
                                  seed, region, std::move(cell_slice));
}

bool WriteArrivalsCsv(const std::vector<ArrivalEvent>& arrivals,
                      const std::string& path) {
  FilePtr f = OpenWrite(path);
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f.get(), "timestamp_us,function\n");
  for (const ArrivalEvent& a : arrivals) {
    std::fprintf(f.get(), "%" PRId64 ",%u\n", a.time, a.function);
  }
  return std::ferror(f.get()) == 0;
}

bool WriteArrivalsCsv(ArrivalStream& stream, const std::string& path,
                      size_t* count) {
  FilePtr f = OpenWrite(path);
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f.get(), "timestamp_us,function\n");
  size_t rows = 0;
  ArrivalChunk chunk;
  while (stream.NextChunk(&chunk)) {
    for (const ArrivalEvent& a : chunk.events) {
      std::fprintf(f.get(), "%" PRId64 ",%u\n", a.time, a.function);
    }
    rows += chunk.events.size();
  }
  if (count != nullptr) {
    *count = rows;
  }
  return std::ferror(f.get()) == 0;
}

bool ReadArrivalsCsv(const std::string& path, std::vector<ArrivalEvent>& out,
                     trace::CsvError* error) {
  FilePtr f = OpenRead(path);
  if (f == nullptr) {
    SetError(error, 0, "cannot open '" + path + "'");
    return false;
  }
  char line[256];
  int64_t lineno = 0;
  bool first = true;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++lineno;
    if (first) {  // Header.
      first = false;
      continue;
    }
    if (IsBlankLine(line)) {
      continue;
    }
    if (std::strchr(line, '\n') == nullptr && !std::feof(f.get())) {
      SetError(error, lineno,
               "line exceeds " + std::to_string(sizeof(line) - 2) + " characters");
      return false;
    }
    const auto fields = SplitCsvLine(line);
    if (fields.size() != 2) {
      SetError(error, lineno, "expected 2 fields (timestamp_us,function), got " +
                                  std::to_string(fields.size()));
      return false;
    }
    int64_t t = 0;
    uint64_t fn = 0;
    if (!ParseI64(fields[0], t) || t < 0) {
      SetError(error, lineno,
               "timestamp_us '" + fields[0] + "' is not a non-negative integer");
      return false;
    }
    if (!ParseU64(fields[1], UINT32_MAX, fn)) {
      SetError(error, lineno, "function '" + fields[1] + "' is not a valid id");
      return false;
    }
    out.push_back(ArrivalEvent{t, static_cast<trace::FunctionId>(fn)});
  }
  if (std::ferror(f.get()) != 0) {
    SetError(error, lineno, "read error");
    return false;
  }
  return true;
}

}  // namespace coldstart::workload
