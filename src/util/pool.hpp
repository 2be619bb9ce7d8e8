// Slab free-list allocator for hot-path node churn.
//
// Each Planner owns one Pool for its non-base scheduled points (the base
// point is a member of the Planner). Under a drain the same few dozen
// points are freed and re-created thousands of times; the pool hands
// them out from a free list and never returns memory to the system until
// it is destroyed, so steady-state add/rem cycles allocate nothing.
//
// Slabs are lazy: an empty pool holds no memory, and the first create()
// allocates the first 64-slot slab. Most planners of a large graph are
// never touched by a span and so never allocate one. Slots of one slab
// sit together, which keeps a planner's points close in memory for the
// tree walks over them.
//
// Not thread-safe: each Pool belongs to a single owner (a Planner), and
// an engine's planners are driven by one thread (see the concurrency
// contract in docs/extending.md).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace fluxion::util {

template <typename T>
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() = default;  // slabs free wholesale; a live T with a nontrivial
                      // destructor must be destroyed by the owner first

  /// Construct a T in a recycled (or fresh) slot.
  template <typename... Args>
  T* create(Args&&... args) {
    Slot* slot = free_;
    if (slot != nullptr) {
      free_ = slot->next_free;
    } else {
      slot = fresh_slot();
    }
    ++live_;
    return ::new (static_cast<void*>(slot->storage)) T(
        std::forward<Args>(args)...);
  }

  /// Destroy a T previously returned by create() and recycle its slot.
  void destroy(T* p) {
    p->~T();
    Slot* slot = std::launder(reinterpret_cast<Slot*>(
        reinterpret_cast<unsigned char*>(p)));
    slot->next_free = free_;
    free_ = slot;
    --live_;
  }

  std::size_t live() const noexcept { return live_; }
  std::size_t capacity() const noexcept { return slabs_.size() * kSlabSize; }

 private:
  // A slot holds either a live T or a free-list link; the storage array
  // is first so a T* converts back to its Slot* without an offset.
  union Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    Slot* next_free;
  };
  static constexpr std::size_t kSlabSize = 64;

  Slot* fresh_slot() {
    if (slabs_.empty() || slab_used_ == kSlabSize) {
      slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
      slab_used_ = 0;
    }
    return &slabs_.back()[slab_used_++];
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::size_t slab_used_ = 0;
  Slot* free_ = nullptr;
  std::size_t live_ = 0;
};

}  // namespace fluxion::util
