// The allocation substrate of the exec hot path: size-class freelist
// recycling, epoch reset, over-aligned blocks, and a 200-seed property fuzz
// checking that every outstanding block stays writable and disjoint under
// randomized allocate/release churn.
#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <random>
#include <vector>

namespace tsf::common {
namespace {

TEST(Arena, FreelistReusesReleasedBlockByPointerEquality) {
  Arena arena;
  void* first = arena.allocate(48, 8);  // 64-byte class
  arena.deallocate(first, 48, 8);
  // Same class: the freelist must hand the identical block back.
  void* again = arena.allocate(40, 8);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.freelist_hits(), 1u);
  EXPECT_EQ(arena.fresh_blocks(), 1u);
}

TEST(Arena, DistinctClassesDoNotShareFreelists) {
  Arena arena;
  void* small = arena.allocate(16, 8);
  arena.deallocate(small, 16, 8);
  // A 1KiB request must not be served from the released 16-byte block.
  void* big = arena.allocate(1024, 8);
  EXPECT_NE(small, big);
  EXPECT_EQ(arena.freelist_hits(), 0u);
}

TEST(Arena, SteadyStateChurnStopsAllocatingSlabs) {
  Arena arena;
  // Warm up: allocate and release one working set.
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(arena.allocate(128, 8));
  for (void* p : blocks) arena.deallocate(p, 128, 8);
  const std::size_t warm_slabs = arena.slab_count();
  const std::uint64_t warm_fresh = arena.fresh_blocks();
  // Steady state: the same working set cycles through the freelist.
  for (int round = 0; round < 100; ++round) {
    blocks.clear();
    for (int i = 0; i < 64; ++i) blocks.push_back(arena.allocate(128, 8));
    for (void* p : blocks) arena.deallocate(p, 128, 8);
  }
  EXPECT_EQ(arena.slab_count(), warm_slabs);
  EXPECT_EQ(arena.fresh_blocks(), warm_fresh);
}

TEST(Arena, ResetRecyclesSlabsBetweenEpochs) {
  Arena arena(4096);
  for (int epoch = 0; epoch < 50; ++epoch) {
    // Touch every block: a reset that failed to rewind would run off the
    // slab; a reset that freed slabs would churn bytes_reserved.
    for (int i = 0; i < 16; ++i) {
      void* p = arena.allocate(192, 8);
      std::memset(p, epoch & 0xff, 192);
    }
    arena.reset();
  }
  // The whole 50-epoch run fits in the slabs the first epoch reserved.
  const std::size_t after_first = arena.bytes_reserved();
  arena.reset();
  for (int i = 0; i < 16; ++i) arena.allocate(192, 8);
  EXPECT_EQ(arena.bytes_reserved(), after_first);
}

TEST(Arena, OverAlignedBlocksAreAlignedAndRecycleInTheirOwnClass) {
  struct alignas(64) Cacheline {
    unsigned char bytes[64];
  };
  Arena arena;
  std::vector<void*> blocks;
  for (int i = 0; i < 8; ++i) {
    void* p = arena.allocate(sizeof(Cacheline), alignof(Cacheline));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << i;
    blocks.push_back(p);
  }
  // A 16-byte over-aligned request is keyed by max(bytes, align): releasing
  // it must feed the 64-byte class, not the 16-byte one.
  void* small_overaligned = arena.allocate(16, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small_overaligned) % 64, 0u);
  arena.deallocate(small_overaligned, 16, 64);
  void* reused = arena.allocate(sizeof(Cacheline), alignof(Cacheline));
  EXPECT_EQ(reused, small_overaligned);
  for (void* p : blocks) arena.deallocate(p, sizeof(Cacheline), 64);
}

TEST(Arena, JumboBlocksAboveTheLargestClassStillRecycle) {
  Arena arena;
  const std::size_t jumbo = (std::size_t{1} << 20) + 1;  // above kMaxClassBytes
  void* p = arena.allocate(jumbo, 8);
  std::memset(p, 0xab, jumbo);
  arena.deallocate(p, jumbo, 8);
  void* q = arena.allocate(jumbo, 8);
  EXPECT_EQ(p, q);
  EXPECT_EQ(arena.freelist_hits(), 1u);
}

TEST(ArenaAllocator, DequeDrawsFromArenaAndSurvivesEpochReuse) {
  Arena arena;
  using Deque = std::deque<std::int64_t, ArenaAllocator<std::int64_t>>;
  {
    Deque q{ArenaAllocator<std::int64_t>(&arena)};
    for (std::int64_t i = 0; i < 1000; ++i) q.push_back(i);
    for (std::int64_t i = 0; i < 1000; ++i) {
      ASSERT_EQ(q.front(), i);
      q.pop_front();
    }
  }
  EXPECT_GT(arena.fresh_blocks(), 0u);
  const std::uint64_t fresh = arena.fresh_blocks();
  // A second full cycle re-serves the chunk blocks from the freelists.
  {
    Deque q{ArenaAllocator<std::int64_t>(&arena)};
    for (std::int64_t i = 0; i < 1000; ++i) q.push_back(i);
  }
  EXPECT_EQ(arena.fresh_blocks(), fresh);
}

TEST(ArenaAllocator, NullArenaFallsBackToTheHeap) {
  std::deque<int, ArenaAllocator<int>> q;  // default: no arena
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.back(), 99);
}

TEST(ArenaAllocator, EqualityFollowsTheArena) {
  Arena a, b;
  ArenaAllocator<int> on_a(&a), on_a2(&a), on_b(&b), none;
  EXPECT_EQ(on_a, on_a2);
  EXPECT_NE(on_a, on_b);
  EXPECT_NE(on_a, none);
  // Rebinding preserves the arena.
  ArenaAllocator<double> rebound(on_a);
  EXPECT_EQ(rebound.arena(), &a);
}

// 200-seed property fuzz: random allocate/release
// churn over mixed size classes. Every live block carries a seed-derived
// fill pattern; corruption of any byte means two blocks overlapped or a
// freelist handed out a live block.
TEST(ArenaProperty, TwoHundredRandomizedChurnRounds) {
  struct Block {
    void* p;
    std::size_t bytes;
    std::size_t align;
    unsigned char fill;
  };
  for (std::uint32_t seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(seed);
    Arena arena(4096);
    std::vector<Block> live;
    unsigned char next_fill = 1;
    for (int step = 0; step < 300; ++step) {
      const bool release = !live.empty() && rng() % 3 == 0;
      if (release) {
        const std::size_t victim = rng() % live.size();
        Block b = live[victim];
        for (std::size_t i = 0; i < b.bytes; ++i) {
          ASSERT_EQ(static_cast<unsigned char*>(b.p)[i], b.fill)
              << "seed " << seed << " step " << step;
        }
        arena.deallocate(b.p, b.bytes, b.align);
        live[victim] = live.back();
        live.pop_back();
      } else {
        Block b;
        b.bytes = 1 + rng() % 512;
        b.align = std::size_t{1} << (rng() % 7);  // 1..64
        b.fill = next_fill++;
        if (next_fill == 0) next_fill = 1;
        b.p = arena.allocate(b.bytes, b.align);
        ASSERT_EQ(reinterpret_cast<std::uintptr_t>(b.p) % b.align, 0u);
        std::memset(b.p, b.fill, b.bytes);
        live.push_back(b);
      }
    }
    // Everything still alive must still hold its pattern.
    for (const Block& b : live) {
      for (std::size_t i = 0; i < b.bytes; ++i) {
        ASSERT_EQ(static_cast<unsigned char*>(b.p)[i], b.fill)
            << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace tsf::common
