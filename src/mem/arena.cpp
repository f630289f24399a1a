#include "mem/arena.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/strings.hpp"

namespace pooch::mem {

namespace {

/// First block of an offset-sorted list at or above `offset`.
template <typename Blocks>
auto lower_bound(Blocks& blocks, Offset offset) {
  return std::lower_bound(
      blocks.begin(), blocks.end(), offset,
      [](const auto& b, Offset off) { return b.offset < off; });
}

}  // namespace

Arena::Arena(std::size_t capacity, std::size_t alignment)
    : capacity_(capacity), alignment_(alignment) {
  POOCH_CHECK_MSG(alignment_ > 0 && (alignment_ & (alignment_ - 1)) == 0,
                  "alignment must be a power of two");
  capacity_ = capacity / alignment_ * alignment_;
  stats_.capacity = capacity_;
  stats_.free_bytes = capacity_;
  if (capacity_ > 0) free_blocks_.push_back({0, capacity_});
}

std::size_t Arena::align_up(std::size_t bytes) const {
  if (bytes == 0) bytes = 1;
  return (bytes + alignment_ - 1) / alignment_ * alignment_;
}

Arena::Blocks::const_iterator Arena::find_allocated(Offset offset) const {
  const auto it = lower_bound(allocated_, offset);
  return it != allocated_.end() && it->offset == offset ? it
                                                        : allocated_.end();
}

std::optional<Offset> Arena::allocate(std::size_t bytes, AllocSide side) {
  const std::size_t need = align_up(bytes);
  auto chosen = free_blocks_.end();
  if (side == AllocSide::kBottom) {
    // Best fit: smallest free block that holds `need` (ties resolve to
    // the lowest offset by scan order).
    for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
      if (it->size < need) continue;
      if (chosen == free_blocks_.end() || it->size < chosen->size) {
        chosen = it;
      }
      if (it->size == need) break;  // exact fit cannot be beaten
    }
  } else {
    // Topmost fit: the highest-addressed free block that holds `need`.
    for (auto it = free_blocks_.rbegin(); it != free_blocks_.rend(); ++it) {
      if (it->size >= need) {
        chosen = std::prev(it.base());
        break;
      }
    }
  }
  if (chosen == free_blocks_.end()) {
    ++stats_.failed_allocs;
    return std::nullopt;
  }
  // A split shrinks the chosen block in place (it keeps its rank in the
  // sorted list); an exact fit removes it.
  Offset offset = chosen->offset;
  if (chosen->size > need) {
    ++stats_.split_count;
    if (side == AllocSide::kBottom) {
      chosen->offset += need;
    } else {
      offset += chosen->size - need;
    }
    chosen->size -= need;
  } else {
    free_blocks_.erase(chosen);
  }
  allocated_.insert(lower_bound(allocated_, offset), {offset, need});
  stats_.in_use += need;
  stats_.free_bytes -= need;
  stats_.peak_in_use = std::max(stats_.peak_in_use, stats_.in_use);
  ++stats_.alloc_count;
  return offset;
}

void Arena::free(Offset offset) {
  const auto it = find_allocated(offset);
  POOCH_CHECK_MSG(it != allocated_.end(),
                  "freeing unallocated offset " << offset);
  const std::size_t length = it->size;
  allocated_.erase(it);
  stats_.in_use -= length;
  stats_.free_bytes += length;
  ++stats_.free_count;

  // Coalesce with the following and the preceding free block.
  const auto next = lower_bound(free_blocks_, offset);
  const bool join_next =
      next != free_blocks_.end() && offset + length == next->offset;
  const bool join_prev =
      next != free_blocks_.begin() &&
      std::prev(next)->offset + std::prev(next)->size == offset;
  stats_.coalesce_count += (join_next ? 1 : 0) + (join_prev ? 1 : 0);
  if (join_prev) {
    const auto prev = std::prev(next);
    prev->size += length;
    if (join_next) {
      prev->size += next->size;
      free_blocks_.erase(next);
    }
  } else if (join_next) {
    next->offset = offset;
    next->size += length;
  } else {
    free_blocks_.insert(next, {offset, length});
  }
}

std::size_t Arena::block_size(Offset offset) const {
  const auto it = find_allocated(offset);
  POOCH_CHECK_MSG(it != allocated_.end(), "unknown offset " << offset);
  return it->size;
}

std::size_t Arena::largest_free_block() const {
  std::size_t best = 0;
  for (const Block& b : free_blocks_) best = std::max(best, b.size);
  return best;
}

const ArenaStats& Arena::stats() const {
  stats_.largest_free_block = largest_free_block();
  return stats_;
}

void Arena::reset() {
  allocated_.clear();
  free_blocks_.clear();
  if (capacity_ > 0) free_blocks_.push_back({0, capacity_});
  stats_.in_use = 0;
  stats_.free_bytes = capacity_;
}

std::string Arena::debug_string() const {
  std::ostringstream os;
  os << "arena capacity=" << format_bytes(capacity_)
     << " in_use=" << format_bytes(stats_.in_use)
     << " free=" << format_bytes(stats_.free_bytes)
     << " largest_free=" << format_bytes(largest_free_block())
     << " allocs=" << stats_.alloc_count << " frees=" << stats_.free_count
     << "\n";
  os << "  allocated blocks: " << allocated_.size()
     << ", free blocks: " << free_blocks_.size() << "\n";
  return os.str();
}

}  // namespace pooch::mem
