#include "trace/trace_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <tuple>

#include "common/check.h"
#include "common/rng.h"

namespace coldstart::trace {

std::string HashedId(uint64_t raw) {
  // One extra mixing round so that sequential numeric ids do not leak ordering, matching
  // the spirit of the dataset's privacy hashing.
  uint64_t s = raw ^ 0xC0FFEE123456789Aull;
  const uint64_t h = SplitMix64(s);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

void TraceStore::AddFunction(const FunctionRecord& r) {
  COLDSTART_CHECK_EQ(static_cast<size_t>(r.function_id), functions_.size());
  functions_.push_back(r);
  sealed_ = false;
}

void TraceStore::AppendFrom(TraceStore&& other) {
  // Every shard of a scenario registers the identical dense function table, so the
  // merged store keeps its own copy and only the event-like tables are appended.
  COLDSTART_CHECK_EQ(functions_.size(), other.functions_.size());
  requests_.insert(requests_.end(), other.requests_.begin(), other.requests_.end());
  cold_starts_.insert(cold_starts_.end(), other.cold_starts_.begin(),
                      other.cold_starts_.end());
  pods_.insert(pods_.end(), other.pods_.begin(), other.pods_.end());
  horizon_ = std::max(horizon_, other.horizon_);
  sealed_ = false;
  other = TraceStore();
}

namespace {

// Counts the rows of [first, last) off its ascending chain (a row below the
// last row kept), stopping once the count reaches `limit`.
template <typename It, typename Less>
size_t CountOffChain(It first, It last, size_t limit, Less less) {
  size_t off = 0;
  It high = first;
  for (It it = first + 1; it != last && off < limit; ++it) {
    if (less(*it, *high)) {
      ++off;
    } else {
      high = it;
    }
  }
  return off;
}

// Moves the `k` rows of [first, last) off its ascending chain aside, sorts
// them and merges them back in place.
template <typename It, typename Less>
void MergeOffChainRows(It first, It last, size_t k, Less less) {
  std::vector<typename std::iterator_traits<It>::value_type> aside;
  aside.reserve(k);
  It kept = first + 1;  // The chain, compacted to the front.
  for (It it = first + 1; it != last; ++it) {
    if (less(*it, kept[-1])) {
      aside.push_back(*it);
    } else {
      *kept++ = *it;
    }
  }
  std::sort(aside.begin(), aside.end(), less);
  It out = last;
  for (auto j = aside.end(); j != aside.begin();) {
    *--out = kept != first && less(j[-1], kept[-1]) ? *--kept : *--j;
  }
}

// Sorts `rows` into `less` order, leaving the bytes a full std::sort leaves:
// every key below is a total order, so the sorted table is unique. Tables
// arrive nearly sorted. A request is recorded at bind and stamped with its
// execution start, never earlier, so some rows run ahead of their place; a pod
// is recorded at death and keyed by its birth, so some run behind. Seal counts
// the rows off the ascending chain read forwards (rows behind) and, unless
// there are none, off the chain read backwards (rows ahead), then moves the
// shorter list aside, sorts it and merges it back in place: O(n + k log k)
// for k rows aside. Where more than half the rows are off both chains (tables
// AppendFrom concatenated from several shards), std::sort is as cheap and
// needs no side buffer; a count stops once it cannot be picked.
template <typename T, typename Less>
void SortNearlySorted(std::vector<T>& rows, Less less) {
  const size_t n = rows.size();
  if (n < 2) {
    return;
  }
  const size_t half = n / 2;
  const size_t behind = CountOffChain(rows.begin(), rows.end(), half + 1, less);
  if (behind == 0) {
    return;
  }
  // The backward chain is the ascending chain of the reversed table under the
  // reversed order.
  const auto greater = [&less](const T& a, const T& b) { return less(b, a); };
  const size_t ahead =
      CountOffChain(rows.rbegin(), rows.rend(), std::min(behind, half + 1), greater);
  if (ahead < behind && ahead <= half) {
    MergeOffChainRows(rows.rbegin(), rows.rend(), ahead, greater);
  } else if (behind <= half) {
    MergeOffChainRows(rows.begin(), rows.end(), behind, less);
  } else {
    std::sort(rows.begin(), rows.end(), less);
  }
}

}  // namespace

void TraceStore::Seal() {
  if (sealed_) {
    return;
  }
  // The keys form a total order: request ids are unique, and a pod id (which embeds
  // its region) names at most one cold-start and one lifetime record. A total order
  // is what guarantees that per-region shards merged in any order seal identically
  // to the serial run.
  SortNearlySorted(requests_, [](const RequestRecord& a, const RequestRecord& b) {
    return std::tie(a.timestamp, a.region, a.request_id, a.pod_id) <
           std::tie(b.timestamp, b.region, b.request_id, b.pod_id);
  });
  SortNearlySorted(cold_starts_, [](const ColdStartRecord& a, const ColdStartRecord& b) {
    return std::tie(a.timestamp, a.region, a.pod_id) <
           std::tie(b.timestamp, b.region, b.pod_id);
  });
  SortNearlySorted(pods_, [](const PodLifetimeRecord& a, const PodLifetimeRecord& b) {
    return std::tie(a.cold_start_begin, a.region, a.pod_id) <
           std::tie(b.cold_start_begin, b.region, b.pod_id);
  });
  sealed_ = true;
}

void TraceStore::RestoreTables(std::vector<RequestRecord> requests,
                               std::vector<ColdStartRecord> cold_starts,
                               std::vector<FunctionRecord> functions,
                               std::vector<PodLifetimeRecord> pods, SimTime horizon) {
  COLDSTART_CHECK(requests_.empty() && cold_starts_.empty() && functions_.empty() &&
                  pods_.empty());
  requests_ = std::move(requests);
  cold_starts_ = std::move(cold_starts);
  functions_ = std::move(functions);
  pods_ = std::move(pods);
  horizon_ = horizon;
  sealed_ = false;
}

void TraceStore::Reserve(size_t requests, size_t cold_starts, size_t pods) {
  requests_.reserve(requests);
  cold_starts_.reserve(cold_starts);
  pods_.reserve(pods);
}

uint64_t Digest(const TraceStore& store) {
  // Field-by-field (never memcmp over structs: padding bytes are unspecified).
  uint64_t h = HashString("trace-digest-v1");
  const auto mix = [&h](uint64_t v) { h = MixHash(h, v); };
  mix(static_cast<uint64_t>(store.horizon()));
  mix(store.functions().size());
  for (const auto& f : store.functions()) {
    mix(f.function_id);
    mix(f.user_id);
    mix(f.region);
    mix(static_cast<uint64_t>(f.runtime));
    mix(static_cast<uint64_t>(f.primary_trigger));
    mix(f.trigger_mask);
    mix(static_cast<uint64_t>(f.config));
  }
  mix(store.requests().size());
  for (const auto& r : store.requests()) {
    mix(static_cast<uint64_t>(r.timestamp));
    mix(r.request_id);
    mix(r.pod_id);
    mix(r.function_id);
    mix(r.user_id);
    mix(r.region);
    mix(r.cluster);
    mix(r.cpu_millicores);
    mix(r.execution_time_us);
    mix(r.memory_kb);
  }
  mix(store.cold_starts().size());
  for (const auto& c : store.cold_starts()) {
    mix(static_cast<uint64_t>(c.timestamp));
    mix(c.pod_id);
    mix(c.function_id);
    mix(c.user_id);
    mix(c.region);
    mix(c.cluster);
    mix(c.cold_start_us);
    mix(c.pod_alloc_us);
    mix(c.deploy_code_us);
    mix(c.deploy_dep_us);
    mix(c.scheduling_us);
  }
  mix(store.pods().size());
  for (const auto& p : store.pods()) {
    mix(p.pod_id);
    mix(p.function_id);
    mix(p.region);
    mix(p.cluster);
    mix(static_cast<uint64_t>(p.config));
    mix(static_cast<uint64_t>(p.cold_start_begin));
    mix(static_cast<uint64_t>(p.ready_time));
    mix(static_cast<uint64_t>(p.last_busy_end));
    mix(static_cast<uint64_t>(p.death_time));
    mix(p.cold_start_us);
    mix(p.requests_served);
  }
  return h;
}

}  // namespace coldstart::trace
