// Dense per-function policy state: function ids are dense (0..N-1), so a
// policy keeps its per-function learned state in a vector indexed by
// FunctionId rather than a hash map. Find() returns nullptr for an id never
// touched, so a policy answers with its defaults for unseen functions.
// Iteration is in ascending fid by construction, so checkpoint blobs are in
// fid order and never see hash order (platform/policy_hooks.h contract (a)).
#ifndef COLDSTART_POLICY_FUNCTION_TABLE_H_
#define COLDSTART_POLICY_FUNCTION_TABLE_H_

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "platform/platform.h"
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

  // Checkpoint layout (common/byte_serde.h): U64 count, then (U64 fid, entry)
  // per touched function in ascending fid order; `entry(T&)` lays out one
  // entry. A read fills an empty table attached to `platform`: each entry is
  // built from `args` before `entry` fills it, and a duplicate, descending or
  // out-of-population fid CHECK-fails rather than overwriting or allocating.
  template <class Ar, class Self, class Entry, class... Args>
  static void Layout(Ar& a, Self& self, const platform::Platform* platform, Entry entry,
                     const Args&... args) {
    static_assert(Ar::kReading != std::is_const_v<Self>);
    COLDSTART_CHECK(!Ar::kReading || self.size_ == 0);
    uint64_t n = self.size_;
    a.U64(n);
    uint64_t fid = 0;
    for (uint64_t i = 0; i < n; ++i, ++fid) {
      // Writing: the next touched fid. Reading: the table ends at fid.
      while (fid < self.slots_.size() && !self.slots_[fid].has_value()) {
        ++fid;
      }
      a.U64(fid);
      entry(self.LayoutEntry(fid, platform, args...));
    }
  }

 private:
  // The entry Layout visits at `fid`: the touched one of a const table being
  // written, or a new one of a table being read.
  template <class... Args>
  const T& LayoutEntry(uint64_t fid, const platform::Platform*, const Args&...) const {
    return *slots_[fid];
  }
  template <class... Args>
  T& LayoutEntry(uint64_t fid, const platform::Platform* platform, const Args&... args) {
    COLDSTART_CHECK_GE(fid, slots_.size());  // Strictly ascending.
    COLDSTART_CHECK(platform != nullptr && fid < platform->num_functions());
    return Touch(static_cast<trace::FunctionId>(fid), args...);
  }

  std::vector<std::optional<T>> slots_;
  size_t size_ = 0;
};

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_FUNCTION_TABLE_H_
