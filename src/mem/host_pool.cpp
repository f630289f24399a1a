#include "mem/host_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pooch::mem {

bool HostPool::reserve(std::size_t bytes) {
  // Compare against the room left, so a huge request cannot wrap the sum.
  if (bytes > capacity_ - in_use_) return false;
  in_use_ += bytes;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  return true;
}

void HostPool::release(std::size_t bytes) {
  POOCH_CHECK_MSG(bytes <= in_use_, "host pool underflow");
  in_use_ -= bytes;
}

}  // namespace pooch::mem
