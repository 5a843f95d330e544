// Dense per-function policy state: function ids are dense (0..N-1), so a
// policy keeps its per-function learned state in a vector indexed by
// FunctionId rather than a hash map. Find() returns nullptr for an id never
// touched, so a policy answers with its defaults for unseen functions.
// Iteration is in ascending fid by construction, so checkpoint blobs are in
// fid order and never see hash order (platform/policy_hooks.h contract (a)).
#ifndef COLDSTART_POLICY_FUNCTION_TABLE_H_
#define COLDSTART_POLICY_FUNCTION_TABLE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/byte_serde.h"
#include "common/check.h"
#include "trace/types.h"

namespace coldstart::policy {

template <typename T>
class FunctionTable {
 public:
  // The entry for `fid`, constructed from `args` on first use. Invalidated by
  // the next Touch of a larger id.
  template <typename... Args>
  T& Touch(trace::FunctionId fid, Args&&... args) {
    if (fid >= slots_.size()) {
      slots_.resize(static_cast<size_t>(fid) + 1);
    }
    std::optional<T>& slot = slots_[fid];
    if (!slot.has_value()) {
      slot.emplace(std::forward<Args>(args)...);
      ++size_;
    }
    return *slot;
  }

  const T* Find(trace::FunctionId fid) const {
    return fid < slots_.size() && slots_[fid].has_value() ? &*slots_[fid] : nullptr;
  }

  size_t size() const { return size_; }  // Touched functions.

  // Blob layout: U64 count, then (U64 fid, entry) per touched function in
  // ascending fid order; `save_entry(const T&)` writes one entry.
  template <typename SaveEntry>
  void SaveEntries(ByteWriter& w, SaveEntry save_entry) const {
    w.U64(size_);
    for (size_t fid = 0; fid < slots_.size(); ++fid) {
      if (slots_[fid].has_value()) {
        w.U64(fid);
        save_entry(*slots_[fid]);
      }
    }
  }

  // Reads SaveEntries' layout into an empty table: each entry is built from
  // `args`, then `restore_entry(T&)` fills it. A duplicate or descending fid
  // means a writer/reader mismatch and CHECK-fails rather than overwriting.
  template <typename RestoreEntry, typename... Args>
  void RestoreEntries(ByteReader& r, RestoreEntry restore_entry, const Args&... args) {
    COLDSTART_CHECK_EQ(size_, 0u);
    const uint64_t n = r.U64();
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t fid = r.U64();
      COLDSTART_CHECK_GE(fid, slots_.size());  // Strictly ascending.
      COLDSTART_CHECK_LE(fid, std::numeric_limits<trace::FunctionId>::max());
      restore_entry(Touch(static_cast<trace::FunctionId>(fid), args...));
    }
  }

 private:
  std::vector<std::optional<T>> slots_;
  size_t size_ = 0;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_FUNCTION_TABLE_H_
