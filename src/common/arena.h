// A bump arena with size-class freelists — the allocation substrate of the
// exec hot path.
//
// The steady-state epoch loop must perform zero heap allocations (the
// "millions of users" prerequisite named in ROADMAP.md): per-event heap
// traffic — pending-queue deque chunks above all — is replaced by
// blocks carved out of chunked slabs and recycled through per-size-class
// freelists, the mem_list pooling idiom. Fresh demand bumps a pointer into
// the current slab (allocating a new slab only when the current one is
// exhausted); a released block is pushed onto its class's freelist and the
// next same-class request pops it back in O(1). After a short warm-up every
// allocate() is a freelist hit and the arena never touches the global heap
// again.
//
// Not thread-safe: one arena per owner (each TaskServer — and therefore
// each per-core VM world — owns its own). reset() recycles every slab at
// once for epoch-style reuse; it invalidates all outstanding blocks.
#pragma once

#include "common/annotations.h"

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

namespace tsf::common {

class Arena {
 public:
  // Blocks are rounded up to the next power-of-two size class; requests
  // above the largest class get a dedicated slab (still recycled through
  // the freelists, so even jumbo blocks stop hitting the heap once warm).
  static constexpr std::size_t kMinClassBytes = 16;
  static constexpr std::size_t kMaxClassBytes = std::size_t{1} << 20;

  explicit Arena(std::size_t slab_bytes = 64 * 1024);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Never returns nullptr (throws std::bad_alloc on slab exhaustion like
  // operator new). `align` must be a power of two <= 4096; blocks of a
  // class are always aligned to min(class size, 4096), so any type whose
  // alignment does not exceed its (rounded) size — i.e. every type — is
  // served correctly, including over-aligned ones.
  TSF_NO_ALLOC void* allocate(std::size_t bytes, std::size_t align);
  // Returns the block to its size class's freelist. `bytes` and `align`
  // must match the allocate() call (the std::allocator contract).
  TSF_NO_ALLOC void deallocate(void* p, std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  // Recycles every slab wholesale: freelists are dropped, bump pointers
  // rewind, slabs are retained. All outstanding blocks become invalid.
  void reset();

  // --- observability (asserted by tests, reported by benches) ---
  std::size_t slab_count() const { return slab_count_; }
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  // allocate() calls served by popping a freelist vs by bumping a slab.
  std::uint64_t freelist_hits() const { return freelist_hits_; }
  std::uint64_t fresh_blocks() const { return fresh_blocks_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct Slab {
    Slab* next;
    std::size_t capacity;  // usable bytes after this header
    std::size_t used;
  };

  // 16, 32, ..., kMaxClassBytes, plus one overflow class per jumbo size
  // rounded to the next power of two (still indexable: log2 range).
  static constexpr int kMinShift = 4;
  static constexpr int kMaxShift = 26;  // 64 MiB single-block ceiling
  static constexpr int kNumClasses = kMaxShift - kMinShift + 1;

  static int class_of(std::size_t bytes);
  static std::size_t class_bytes(int cls) {
    return std::size_t{1} << (cls + kMinShift);
  }

  TSF_NO_ALLOC void* bump(std::size_t bytes, std::size_t align);
  Slab* new_slab(std::size_t min_capacity);

  std::size_t slab_bytes_;
  Slab* slabs_ = nullptr;  // current slab at the head
  FreeNode* free_[kNumClasses] = {};
  std::size_t slab_count_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::uint64_t freelist_hits_ = 0;
  std::uint64_t fresh_blocks_ = 0;
};

// std-compatible allocator adapter so containers (the pending queues'
// deques) draw from an Arena. With a null arena it degrades to the global
// heap — containers stay constructible before their owner has an arena.
// Allocators compare equal iff they share the arena, and propagate on
// move/swap, so container moves never mix arenas silently.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  TSF_NO_ALLOC T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    // TSF_LINT_ALLOW[rt-alloc]: null-arena degradation path — containers
    // constructed before their owner has an arena; never on the hot path.
    return static_cast<T*>(::operator new(bytes, std::align_val_t{alignof(T)}));
  }
  TSF_NO_ALLOC void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ != nullptr) {
      arena_->deallocate(p, n * sizeof(T), alignof(T));
      return;
    }
    // TSF_LINT_ALLOW[rt-alloc]: null-arena degradation path, see allocate().
    ::operator delete(p, n * sizeof(T), std::align_val_t{alignof(T)});
  }

  Arena* arena() const noexcept { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return !(a == b);
  }

 private:
  Arena* arena_ = nullptr;
};

}  // namespace tsf::common
