// Slot arena for per-flow churn (DESIGN.md §11).
//
// The simulator's steady state allocates and frees the same small objects
// millions of times per run; flow records live for one flow's duration.
// General-purpose heap allocation pays malloc metadata, lock traffic, and
// fragmentation for every one of them. SlotArena<T> recycles storage
// instead: a stable-index arena with a free list. allocate() returns a
// reusable slot index whose T object is *recycled, not reconstructed* — a
// released FlowRecord keeps its delivered-bitmap capacity, so the next
// flow's bitmap assign() is heap-free once the arena is warm. Indices stay
// valid until release(); references are stable across allocate() (deque
// storage).
//
// Queued cells do not use this arena: VoqSet (sim/voq.h) keeps one cell
// slab per node, and its slots may move when the slab grows.
//
// Thread contract: not thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace sorn {

template <typename T>
class SlotArena {
 public:
  std::uint32_t allocate() {
    if (!free_.empty()) {
      const std::uint32_t i = free_.back();
      free_.pop_back();
      return i;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  // The slot's object is NOT destroyed — it is recycled by the next
  // allocate(), keeping whatever heap capacity it grew. Callers must
  // fully re-initialize recycled objects.
  void release(std::uint32_t i) { free_.push_back(i); }

  T& operator[](std::uint32_t i) { return slots_[i]; }
  const T& operator[](std::uint32_t i) const { return slots_[i]; }

  // Slots currently handed out.
  std::size_t live() const { return slots_.size() - free_.size(); }
  // Slots ever created (live + recyclable).
  std::size_t capacity() const { return slots_.size(); }

  std::uint64_t memory_bytes() const {
    return slots_.size() * sizeof(T) +
           free_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::deque<T> slots_;  // deque: references stable across allocate()
  std::vector<std::uint32_t> free_;
};

}  // namespace sorn
