#include "mem/arena.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/strings.hpp"

namespace pooch::mem {

namespace {

/// First free block at or above `offset`.
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

std::size_t Arena::home_slot(Offset offset) const {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(offset) * 0x9E3779B97F4A7C15ull) >>
      (64 - slot_bits_));
}

std::size_t Arena::find_allocated(Offset offset) const {
  if (allocated_.empty()) return kNoSlot;
  const std::size_t mask = allocated_.size() - 1;
  for (std::size_t i = home_slot(offset); allocated_[i].size != 0;
       i = (i + 1) & mask) {
    if (allocated_[i].offset == offset) return i;
  }
  return kNoSlot;
}

void Arena::insert_allocated(Offset offset, std::size_t size) {
  if (2 * (allocated_count_ + 1) > allocated_.size()) {
    Blocks old = std::move(allocated_);
    slot_bits_ = old.empty() ? 6 : slot_bits_ + 1;
    allocated_.assign(std::size_t{1} << slot_bits_, Block{0, 0});
    allocated_count_ = 0;
    for (const Block& b : old) {
      if (b.size != 0) insert_allocated(b.offset, b.size);
    }
  }
  const std::size_t mask = allocated_.size() - 1;
  std::size_t i = home_slot(offset);
  while (allocated_[i].size != 0) i = (i + 1) & mask;
  allocated_[i] = {offset, size};
  ++allocated_count_;
}

void Arena::erase_allocated(std::size_t slot) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies cyclically after the hole, so no
  // tombstones accumulate.
  const std::size_t mask = allocated_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (hole + 1) & mask; allocated_[j].size != 0;
       j = (j + 1) & mask) {
    if (((j - home_slot(allocated_[j].offset)) & mask) >=
        ((j - hole) & mask)) {
      allocated_[hole] = allocated_[j];
      hole = j;
    }
  }
  allocated_[hole].size = 0;
  --allocated_count_;
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
  insert_allocated(offset, need);
  stats_.in_use += need;
  stats_.free_bytes -= need;
  stats_.peak_in_use = std::max(stats_.peak_in_use, stats_.in_use);
  ++stats_.alloc_count;
  return offset;
}

void Arena::free(Offset offset) {
  const std::size_t slot = find_allocated(offset);
  POOCH_CHECK_MSG(slot != kNoSlot, "freeing unallocated offset " << offset);
  const std::size_t length = allocated_[slot].size;
  erase_allocated(slot);
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
  const std::size_t slot = find_allocated(offset);
  POOCH_CHECK_MSG(slot != kNoSlot, "unknown offset " << offset);
  return allocated_[slot].size;
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
  std::fill(allocated_.begin(), allocated_.end(), Block{0, 0});
  allocated_count_ = 0;
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
  os << "  allocated blocks: " << allocated_count_
     << ", free blocks: " << free_blocks_.size() << "\n";
  return os.str();
}

}  // namespace pooch::mem
