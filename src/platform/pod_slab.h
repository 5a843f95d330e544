// Chunked slab allocator with generation-checked handles.
//
// The platform keeps every alive pod, and every pending event's payload, in one
// of these instead of an unordered_map: events carry a SlabHandle, so resolving
// a pod or an event is two shifts and a generation compare instead of a hash
// lookup, and allocation reuses slots from a dense LIFO freelist instead of
// hitting the heap per pod. Chunks are stable — a T* stays valid for the slot's
// lifetime — which lets per-function pod lists hold raw pointers.
//
// Generations make stale handles detectable: Free bumps the slot's generation, so
// a handle captured by an in-flight event resolves to nullptr once the slot is
// freed (or recycled), replacing the old map.find(id) == end() liveness test.
//
// Determinism audit (lint:unordered-iter): no hash containers here — slots are
// indexed by handle and walked in slot order, and StructureLayout lays slots
// out by index, so nothing in this layer depends on hash-iteration order.
#ifndef COLDSTART_PLATFORM_POD_SLAB_H_
#define COLDSTART_PLATFORM_POD_SLAB_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace coldstart::platform {

struct SlabHandle {
  static constexpr uint32_t kInvalidIndex = 0xffffffffu;
  uint32_t index = kInvalidIndex;
  uint32_t gen = 0;

  // The handle as one word (an event-queue token) and back.
  uint64_t Pack() const { return (uint64_t{gen} << 32) | index; }
  static SlabHandle Unpack(uint64_t word) {
    return {static_cast<uint32_t>(word), static_cast<uint32_t>(word >> 32)};
  }
};

template <typename T>
class Slab {
 public:
  // Returns a value-initialized slot and the handle that resolves to it.
  // Determinism note: slots are reused in LIFO order, so allocation order is a
  // pure function of the alloc/free history.
  std::pair<T*, SlabHandle> Allocate() {
    if (free_.empty()) {
      const uint32_t base = capacity_;
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      capacity_ += kChunkSize;
      // Reversed so the new chunk's slots are handed out in ascending order.
      for (uint32_t i = 0; i < kChunkSize; ++i) {
        free_.push_back(base + kChunkSize - 1 - i);
      }
    }
    const uint32_t index = free_.back();
    free_.pop_back();
    Slot& s = slot(index);
    s.value = T{};
    s.alive = true;
    ++alive_;
    return {&s.value, SlabHandle{index, s.gen}};
  }

  // Frees the slot and invalidates every outstanding handle to it.
  void Free(SlabHandle h) {
    COLDSTART_CHECK_LT(h.index, capacity_);
    Slot& s = slot(h.index);
    COLDSTART_CHECK(s.alive);
    COLDSTART_CHECK_EQ(s.gen, h.gen);
    s.alive = false;
    ++s.gen;
    --alive_;
    free_.push_back(h.index);
  }

  // The live object for `h`, or nullptr when the slot was freed or recycled.
  T* Resolve(SlabHandle h) {
    return const_cast<T*>(static_cast<const Slab*>(this)->Resolve(h));
  }
  const T* Resolve(SlabHandle h) const {
    if (h.index >= capacity_) {
      return nullptr;
    }
    const Slot& s = slot(h.index);
    return (s.alive && s.gen == h.gen) ? &s.value : nullptr;
  }

  size_t alive_count() const { return alive_; }
  size_t capacity() const { return capacity_; }

  // Visits every alive slot in index order (deterministic; used for final flush).
  template <typename Fn>
  void ForEachAlive(Fn&& fn) {
    for (uint32_t i = 0; i < capacity_; ++i) {
      Slot& s = slot(i);
      if (s.alive) {
        fn(s.value);
      }
    }
  }

  // --- Checkpoint support (src/checkpoint/) ---------------------------------
  // A slab travels structurally: capacity, the freelist in LIFO order, and
  // each slot's (generation, alive) pair, plus the alive payloads. That is
  // exactly the state that makes (a) every outstanding SlabHandle resolve the
  // same way after restore and (b) future Allocate calls hand out the same
  // slots in the same order as the uninterrupted run.
  //
  // The structure's layout (common/byte_serde.h); the caller lays out the
  // payloads over the alive slots in index order. A read rebuilds an empty
  // slab whose alive slots come back value-initialized for the caller to fill
  // via slot_value(). A freelist that does not name every dead slot exactly
  // once, and no alive one, CHECK-fails.
  template <class Ar, class Self>
  static void StructureLayout(Ar& a, Self& slab) {
    uint32_t capacity = slab.capacity_;
    a.U32(capacity);
    if constexpr (Ar::kReading) {
      COLDSTART_CHECK_EQ(slab.capacity_, 0u);
      COLDSTART_CHECK_EQ(capacity % kChunkSize, 0u);
      // Every slot takes five bytes below, so a larger capacity is damage,
      // not a reason to allocate.
      COLDSTART_CHECK_LE(capacity, a.Remaining() / 5);
      while (slab.capacity_ < capacity) {
        slab.chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
        slab.capacity_ += kChunkSize;
      }
    }
    a.Count(slab.free_, 4);
    for (auto& index : slab.free_) {
      a.U32(index);
    }
    for (uint32_t i = 0; i < capacity; ++i) {
      a.U32(slab.slot(i).gen);
    }
    for (uint32_t i = 0; i < capacity; ++i) {
      a.U8(slab.slot(i).alive);
    }
    if constexpr (Ar::kReading) {
      slab.CheckRestoredFreeList();
    }
  }

  // These take raw indices (checkpoint bytes), so they CHECK the range.
  uint32_t slot_generation(uint32_t index) const { return checked_slot(index).gen; }
  bool slot_alive(uint32_t index) const { return checked_slot(index).alive; }
  const T& slot_value(uint32_t index) const {
    COLDSTART_CHECK(checked_slot(index).alive);
    return slot(index).value;
  }
  T& slot_value(uint32_t index) {
    COLDSTART_CHECK(checked_slot(index).alive);
    return slot(index).value;
  }

  // ---------------------------------------------------------------------------

 private:
  // Counts the restored alive slots; the freelist must name every other slot
  // exactly once.
  void CheckRestoredFreeList() {
    std::vector<uint8_t> listed(capacity_, 0);
    for (const uint32_t i : free_) {
      COLDSTART_CHECK_LT(i, capacity_);
      COLDSTART_CHECK(!slot(i).alive);
      COLDSTART_CHECK_EQ(listed[i], 0);
      listed[i] = 1;
    }
    for (uint32_t i = 0; i < capacity_; ++i) {
      alive_ += slot(i).alive ? 1 : 0;
    }
    COLDSTART_CHECK_EQ(free_.size() + alive_, capacity_);
  }

  // 128 slots. A chunk is value-initialised whole when it is added, so it is
  // resident from then on: each shard of a sharded run pays at least one
  // chunk per slab, and a smaller chunk keeps that floor near what the shard
  // uses. 512-slot chunks cost month_sharded about 0.3 MB of peak RSS.
  static constexpr uint32_t kChunkBits = 7;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  struct Slot {
    T value{};
    uint32_t gen = 0;
    bool alive = false;
  };

  Slot& slot(uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  const Slot& slot(uint32_t index) const {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  const Slot& checked_slot(uint32_t index) const {
    COLDSTART_CHECK_LT(index, capacity_);
    return slot(index);
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;  // Stable storage.
  std::vector<uint32_t> free_;                   // Dense LIFO freelist.
  uint32_t capacity_ = 0;
  size_t alive_ = 0;
};

}  // namespace coldstart::platform

#endif  // COLDSTART_PLATFORM_POD_SLAB_H_
