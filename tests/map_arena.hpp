// Test-only oracle: mem::Arena's placement rules written the obvious way,
// with one ordered std::map per block set, so the differential test in
// test_arena.cpp can check the flat-vector arena decision for decision.
#pragma once

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>

#include "mem/arena.hpp"

namespace pooch::mem::testing {

class MapArena {
 public:
  MapArena(std::size_t capacity, std::size_t alignment)
      : alignment_(alignment) {
    capacity_ = capacity / alignment_ * alignment_;
    stats_.capacity = capacity_;
    stats_.free_bytes = capacity_;
    if (capacity_ > 0) free_blocks_.emplace(0, capacity_);
  }

  std::optional<Offset> allocate(std::size_t bytes, AllocSide side) {
    const std::size_t need =
        (std::max<std::size_t>(bytes, 1) + alignment_ - 1) / alignment_ *
        alignment_;
    auto chosen = free_blocks_.end();
    if (side == AllocSide::kBottom) {
      for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
        if (it->second < need) continue;
        if (chosen == free_blocks_.end() || it->second < chosen->second) {
          chosen = it;
        }
        if (it->second == need) break;
      }
    } else {
      for (auto it = free_blocks_.rbegin(); it != free_blocks_.rend(); ++it) {
        if (it->second >= need) {
          chosen = std::prev(it.base());
          break;
        }
      }
    }
    if (chosen == free_blocks_.end()) {
      ++stats_.failed_allocs;
      return std::nullopt;
    }
    const Offset block_offset = chosen->first;
    const std::size_t block = chosen->second;
    free_blocks_.erase(chosen);
    Offset offset;
    if (block > need) ++stats_.split_count;
    if (side == AllocSide::kBottom) {
      offset = block_offset;
      if (block > need) free_blocks_.emplace(offset + need, block - need);
    } else {
      offset = block_offset + block - need;
      if (block > need) free_blocks_.emplace(block_offset, block - need);
    }
    allocated_.emplace(offset, need);
    stats_.in_use += need;
    stats_.free_bytes -= need;
    stats_.peak_in_use = std::max(stats_.peak_in_use, stats_.in_use);
    ++stats_.alloc_count;
    return offset;
  }

  void free(Offset offset) {
    auto it = allocated_.find(offset);
    std::size_t begin = offset;
    std::size_t length = it->second;
    allocated_.erase(it);
    stats_.in_use -= length;
    stats_.free_bytes += length;
    ++stats_.free_count;
    auto next = free_blocks_.lower_bound(begin);
    if (next != free_blocks_.end() && begin + length == next->first) {
      length += next->second;
      next = free_blocks_.erase(next);
      ++stats_.coalesce_count;
    }
    if (next != free_blocks_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == begin) {
        begin = prev->first;
        length += prev->second;
        free_blocks_.erase(prev);
        ++stats_.coalesce_count;
      }
    }
    free_blocks_.emplace(begin, length);
  }

  std::size_t block_size(Offset offset) const {
    return allocated_.at(offset);
  }
  std::size_t in_use() const { return stats_.in_use; }
  std::size_t free_bytes() const { return stats_.free_bytes; }
  std::size_t largest_free_block() const {
    std::size_t best = 0;
    for (const auto& [off, len] : free_blocks_) best = std::max(best, len);
    return best;
  }
  ArenaStats stats() const {
    ArenaStats s = stats_;
    s.largest_free_block = largest_free_block();
    return s;
  }

  void reset() {
    allocated_.clear();
    free_blocks_.clear();
    if (capacity_ > 0) free_blocks_.emplace(0, capacity_);
    stats_.in_use = 0;
    stats_.free_bytes = capacity_;
  }

 private:
  std::size_t capacity_;
  std::size_t alignment_;
  std::map<Offset, std::size_t> free_blocks_;
  std::map<Offset, std::size_t> allocated_;
  ArenaStats stats_;
};

}  // namespace pooch::mem::testing
