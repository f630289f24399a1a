#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "map_arena.hpp"
#include "mem/arena.hpp"
#include "mem/host_pool.hpp"

namespace pooch::mem {
namespace {

TEST(Arena, AllocFreeBasics) {
  Arena a(1024, 256);
  EXPECT_EQ(a.capacity(), 1024u);
  auto b1 = a.allocate(100);
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(a.block_size(*b1), 256u);  // rounded to alignment
  EXPECT_EQ(a.in_use(), 256u);
  a.free(*b1);
  EXPECT_EQ(a.in_use(), 0u);
  EXPECT_EQ(a.free_bytes(), 1024u);
}

TEST(Arena, ExhaustionReturnsNullopt) {
  Arena a(1024, 256);
  EXPECT_TRUE(a.allocate(512).has_value());
  EXPECT_TRUE(a.allocate(512).has_value());
  EXPECT_FALSE(a.allocate(1).has_value());
  EXPECT_EQ(a.stats().failed_allocs, 1u);
}

TEST(Arena, CoalescingRestoresLargeBlock) {
  Arena a(1024, 256);
  auto b1 = a.allocate(256);
  auto b2 = a.allocate(256);
  auto b3 = a.allocate(256);
  auto b4 = a.allocate(256);
  ASSERT_TRUE(b4.has_value());
  // Free out of order; neighbours must merge back into one block.
  a.free(*b2);
  a.free(*b4);
  a.free(*b3);
  a.free(*b1);
  EXPECT_EQ(a.largest_free_block(), 1024u);
  EXPECT_TRUE(a.allocate(1024).has_value());
}

TEST(Arena, FragmentationBlocksLargeAlloc) {
  Arena a(1024, 256);
  auto b1 = a.allocate(256);
  auto b2 = a.allocate(256);
  auto b3 = a.allocate(256);
  auto b4 = a.allocate(256);
  (void)b1;
  (void)b3;
  a.free(*b2);
  a.free(*b4);
  // 512 bytes free but in two 256-byte islands.
  EXPECT_EQ(a.free_bytes(), 512u);
  EXPECT_FALSE(a.allocate(512).has_value());
  EXPECT_GT(a.stats().fragmentation(), 0.4);
}

TEST(Arena, BestFitPrefersSnugBlock) {
  Arena a(10 * 256, 256);
  auto b1 = a.allocate(256);  // [0]
  auto b2 = a.allocate(256);  // [256]
  auto b3 = a.allocate(256);  // [512]
  auto b4 = a.allocate(256);  // [768]
  auto b5 = a.allocate(256);  // [1024] — separates the holes from the tail
  (void)b1;
  (void)b3;
  (void)b5;
  // Punch two 256-byte holes; the tail [1280, 2560) stays free (1280 B).
  a.free(*b2);
  a.free(*b4);
  // A 256-byte request must take a snug hole, not carve the big tail.
  auto snug = a.allocate(256);
  ASSERT_TRUE(snug.has_value());
  EXPECT_TRUE(*snug == 256u || *snug == 768u);
  // A 512-byte request only fits in the tail.
  auto big = a.allocate(512);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(*big, 1280u);
}

TEST(Arena, PeakTracking) {
  Arena a(4096, 256);
  auto b1 = a.allocate(1024);
  auto b2 = a.allocate(2048);
  a.free(*b1);
  a.free(*b2);
  EXPECT_EQ(a.stats().peak_in_use, 3072u);
}

TEST(Arena, DoubleFreeThrows) {
  Arena a(1024, 256);
  auto b = a.allocate(256);
  a.free(*b);
  EXPECT_THROW(a.free(*b), Error);
  EXPECT_THROW(a.free(999), Error);
}

TEST(Arena, FreeOfAnInteriorOffsetThrows) {
  Arena a(4096, 256);
  const auto b = a.allocate(1024);
  ASSERT_TRUE(b.has_value());
  // Offsets inside a live block, aligned or not, name no block.
  EXPECT_THROW(a.free(*b + 256), Error);
  EXPECT_THROW(a.free(*b + 768), Error);
  EXPECT_THROW(a.free(*b + 1), Error);
  EXPECT_THROW((void)a.block_size(*b + 512), Error);
  // The failed frees changed nothing: the block is still whole and live.
  EXPECT_EQ(a.block_size(*b), 1024u);
  EXPECT_EQ(a.in_use(), 1024u);
  EXPECT_EQ(a.stats().free_count, 0u);
  a.free(*b);
  EXPECT_EQ(a.in_use(), 0u);
}

TEST(Arena, FreeOfAnOffsetNeverAllocatedThrows) {
  Arena a(1 << 20, 256);
  // Enough live blocks to grow the allocated table past its first size.
  std::vector<Offset> live;
  for (int i = 0; i < 100; ++i) {
    const auto b =
        a.allocate(256, i % 2 ? AllocSide::kTop : AllocSide::kBottom);
    ASSERT_TRUE(b.has_value());
    live.push_back(*b);
  }
  // Free offsets inside the arena that no allocation returned, and ones
  // past its end.
  EXPECT_THROW(a.free(200 * 256), Error);
  EXPECT_THROW(a.free(a.capacity()), Error);
  EXPECT_THROW(a.free(a.capacity() + 256), Error);
  EXPECT_EQ(a.in_use(), 100u * 256u);
  for (Offset off : live) a.free(off);
  EXPECT_EQ(a.in_use(), 0u);
  EXPECT_THROW(a.free(live.front()), Error);
}

TEST(Arena, ResetRestoresCapacity) {
  Arena a(1024, 256);
  (void)a.allocate(512);
  a.reset();
  EXPECT_EQ(a.in_use(), 0u);
  EXPECT_TRUE(a.allocate(1024).has_value());
}

TEST(Arena, ZeroByteAllocTakesMinimumBlock) {
  Arena a(1024, 256);
  auto b = a.allocate(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a.block_size(*b), 256u);
}

// Property test: random alloc/free traffic never corrupts the accounting
// invariants (in_use + free == capacity; total ledger consistent).
class ArenaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArenaFuzz, AccountingInvariantsHold) {
  const std::size_t cap = 64 * 1024;
  Arena a(cap, 64);
  Rng rng(GetParam());
  std::vector<Offset> live;
  for (int step = 0; step < 4000; ++step) {
    const bool do_alloc = live.empty() || rng.uniform() < 0.55;
    if (do_alloc) {
      const std::size_t want = 1 + rng.below(4096);
      if (auto off = a.allocate(want)) {
        live.push_back(*off);
      }
    } else {
      const std::size_t idx = rng.below(live.size());
      a.free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(a.in_use() + a.free_bytes(), cap);
    ASSERT_LE(a.largest_free_block(), a.free_bytes());
  }
  for (Offset off : live) a.free(off);
  EXPECT_EQ(a.in_use(), 0u);
  EXPECT_EQ(a.largest_free_block(), cap);  // full coalescing at the end
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaFuzz,
                         ::testing::Values(1u, 2u, 3u, 7u, 1234u, 99999u));

// Differential test: the flat-vector arena against the std::map oracle
// (tests/map_arena.hpp), driven through the same seeded trace of
// mixed kBottom/kTop allocations, frees and resets. Sizes are mostly a
// few alignment units, so equal-size holes (the lowest-offset tie rule)
// and exact fits are frequent; some span up to the whole capacity, so
// exhaustion is too. Every decision and every statistic must agree after
// every operation.
class ArenaDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArenaDifferential, MatchesTheMapArenaOracle) {
  constexpr std::size_t kAlign = 256;
  const std::size_t cap = kAlign * (48 + GetParam() % 17);
  Arena arena(cap, kAlign);
  testing::MapArena oracle(cap, kAlign);
  Rng rng(GetParam());
  std::vector<Offset> live;
  int exact_fits = 0, failures = 0, resets = 0;
  for (int step = 0; step < 6000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.002) {
      arena.reset();
      oracle.reset();
      live.clear();
      ++resets;
    } else if (live.empty() || roll < 0.55) {
      std::size_t want;
      const double kind = rng.uniform();
      if (kind < 0.05) {
        want = 0;
      } else if (kind < 0.85) {
        want = kAlign * (1 + rng.below(4)) - rng.below(2) * rng.below(kAlign);
      } else {
        want = rng.below(cap + 1);
      }
      const AllocSide side =
          rng.uniform() < 0.5 ? AllocSide::kBottom : AllocSide::kTop;
      const std::uint64_t splits = oracle.stats().split_count;
      const auto got = arena.allocate(want, side);
      const auto expected = oracle.allocate(want, side);
      ASSERT_EQ(got, expected) << "step " << step << " want " << want;
      if (got) {
        live.push_back(*got);
        ASSERT_EQ(arena.block_size(*got), oracle.block_size(*got));
        if (oracle.stats().split_count == splits) ++exact_fits;
      } else {
        ++failures;
      }
    } else {
      const std::size_t idx = rng.below(live.size());
      arena.free(live[idx]);
      oracle.free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(arena.in_use(), oracle.in_use()) << "step " << step;
    ASSERT_EQ(arena.free_bytes(), oracle.free_bytes());
    ASSERT_EQ(arena.largest_free_block(), oracle.largest_free_block());
    const ArenaStats a = arena.stats();
    const ArenaStats o = oracle.stats();
    ASSERT_EQ(a.capacity, o.capacity);
    ASSERT_EQ(a.in_use, o.in_use);
    ASSERT_EQ(a.peak_in_use, o.peak_in_use);
    ASSERT_EQ(a.free_bytes, o.free_bytes);
    ASSERT_EQ(a.largest_free_block, o.largest_free_block);
    ASSERT_EQ(a.alloc_count, o.alloc_count);
    ASSERT_EQ(a.free_count, o.free_count);
    ASSERT_EQ(a.failed_allocs, o.failed_allocs);
    ASSERT_EQ(a.split_count, o.split_count);
    ASSERT_EQ(a.coalesce_count, o.coalesce_count) << "step " << step;
  }
  for (Offset off : live) {
    ASSERT_EQ(arena.block_size(off), oracle.block_size(off));
  }
  // The trace really exercised the interesting paths.
  EXPECT_GT(exact_fits, 0);
  EXPECT_GT(failures, 0);
  EXPECT_GT(resets, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           42u, 1234u));

TEST(HostPool, ReserveAndRelease) {
  HostPool p(1000);
  EXPECT_TRUE(p.reserve(600));
  EXPECT_FALSE(p.reserve(500));
  EXPECT_TRUE(p.reserve(400));
  EXPECT_EQ(p.in_use(), 1000u);
  EXPECT_EQ(p.peak_in_use(), 1000u);
  p.release(600);
  EXPECT_EQ(p.in_use(), 400u);
  EXPECT_THROW(p.release(401), Error);
  // A rejected release leaves the pool as it was, so it stays usable.
  EXPECT_EQ(p.in_use(), 400u);
  p.release(400);
  EXPECT_EQ(p.in_use(), 0u);
  EXPECT_EQ(p.peak_in_use(), 1000u);
}

TEST(HostPool, ReserveNeverWraps) {
  HostPool p(1000);
  ASSERT_TRUE(p.reserve(10));
  EXPECT_FALSE(p.reserve(SIZE_MAX - 5));
  EXPECT_EQ(p.in_use(), 10u);
  EXPECT_FALSE(p.reserve(SIZE_MAX));
  EXPECT_TRUE(p.reserve(990));
  EXPECT_EQ(p.in_use(), 1000u);
  EXPECT_EQ(p.peak_in_use(), 1000u);
}

}  // namespace
}  // namespace pooch::mem
