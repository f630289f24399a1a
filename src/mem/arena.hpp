// Fixed-capacity device-memory arena with a best-fit free list.
//
// This models the GPU memory pool whose malloc/free order PoocH's profiler
// records (§4.2: "The sizes and order of malloc/free operations on GPU
// memory"). Blocks are carved out of a contiguous address range with
// splitting and neighbour coalescing, so external fragmentation is real:
// two classifications with the same total footprint can differ in
// feasibility — the effect behind the paper's cross-environment OOM
// (§5.2, running the POWER9 classification on the x86 machine).
//
// The free list is a flat, offset-sorted vector, as GPU caching
// allocators keep it: neighbour coalescing keeps it short (a handful of
// blocks on the paper's models), so the best-fit scan and its inserts are
// cheap. The allocated set is an open-addressing table keyed by offset:
// the simulator performs hundreds of allocations per simulated iteration
// and the planner thousands of iterations, with about a hundred blocks
// live at once, and a hash probe neither searches nor shifts them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pooch::mem {

using Offset = std::size_t;

struct ArenaStats {
  std::size_t capacity = 0;
  std::size_t in_use = 0;
  std::size_t peak_in_use = 0;
  std::size_t free_bytes = 0;
  std::size_t largest_free_block = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t free_count = 0;
  std::uint64_t failed_allocs = 0;
  std::uint64_t split_count = 0;     // free blocks carved by an allocation
  std::uint64_t coalesce_count = 0;  // neighbour merges performed by free()

  /// 0 when empty or unfragmented; approaches 1 as free space shatters.
  double fragmentation() const {
    if (free_bytes == 0) return 0.0;
    return 1.0 - static_cast<double>(largest_free_block) /
                     static_cast<double>(free_bytes);
  }
};

/// Placement policy for an allocation. Long-lived buffers grow from the
/// bottom of the address range and short-lived ones from the top — the
/// classic two-ended scheme deep-learning allocators use to keep
/// transient churn from fragmenting the resident set.
enum class AllocSide { kBottom, kTop };

class Arena {
 public:
  explicit Arena(std::size_t capacity, std::size_t alignment = 256);

  /// Returns the block offset, or nullopt when no free block is large
  /// enough (the simulated cudaMalloc failure). kBottom placements are
  /// best-fit (ties to the lowest offset); kTop placements carve from
  /// the top of the highest free block that fits.
  std::optional<Offset> allocate(std::size_t bytes,
                                 AllocSide side = AllocSide::kBottom);

  /// Return a block. Offset must come from allocate().
  void free(Offset offset);

  /// Size of an allocated block (after alignment rounding).
  std::size_t block_size(Offset offset) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const { return stats_.in_use; }
  std::size_t free_bytes() const { return stats_.free_bytes; }
  std::size_t largest_free_block() const;
  const ArenaStats& stats() const;

  /// Release everything (end of iteration); statistics persist.
  void reset();

  /// Multi-line dump of the block map, for OOM diagnostics.
  std::string debug_string() const;

 private:
  struct Block {
    Offset offset;
    std::size_t size;
  };
  using Blocks = std::vector<Block>;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  std::size_t align_up(std::size_t bytes) const;
  /// Home slot of an offset in allocated_ (Fibonacci hashing).
  std::size_t home_slot(Offset offset) const;
  /// Slot of the allocated block starting at `offset`, or kNoSlot.
  std::size_t find_allocated(Offset offset) const;
  void insert_allocated(Offset offset, std::size_t size);
  void erase_allocated(std::size_t slot);

  std::size_t capacity_;
  std::size_t alignment_;
  // Disjoint, sorted by offset. Free blocks are never adjacent (free()
  // coalesces neighbours).
  Blocks free_blocks_;
  // Linear-probing table of the allocated blocks; a slot of size 0 is
  // empty (every block is at least one alignment unit). Its length is a
  // power of two, at least twice the live count.
  Blocks allocated_;
  std::size_t allocated_count_ = 0;
  int slot_bits_ = 0;
  mutable ArenaStats stats_;
};

}  // namespace pooch::mem
