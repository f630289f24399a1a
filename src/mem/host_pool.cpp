#include "mem/host_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pooch::mem {

bool HostPool::reserve(std::size_t bytes) {
  // Optimistic add, roll back on overflow — never over-commits even
  // under concurrent reservations.
  const std::size_t now =
      in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (now > capacity_) {
    in_use_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  std::size_t peak = peak_in_use_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_in_use_.compare_exchange_weak(peak, now,
                                             std::memory_order_relaxed)) {
  }
  return true;
}

void HostPool::release(std::size_t bytes) {
  // Check before subtracting, so a rejected release leaves the pool as
  // it was.
  std::size_t before = in_use_.load(std::memory_order_relaxed);
  do {
    POOCH_CHECK_MSG(bytes <= before, "host pool underflow");
  } while (!in_use_.compare_exchange_weak(before, before - bytes,
                                          std::memory_order_relaxed));
}

Staging::Staging(int slots) : busy_(static_cast<std::size_t>(slots), 0) {
  POOCH_CHECK(slots >= 1);
}

int Staging::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      if (!busy_[i]) {
        busy_[i] = 1;
        ++acquisitions_;
        ++held_;
        peak_held_ = std::max(peak_held_, held_);
        return static_cast<int>(i);
      }
    }
    cv_.wait(lock);
  }
}

void Staging::release(int slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    POOCH_CHECK(slot >= 0 && slot < slots() &&
                busy_[static_cast<std::size_t>(slot)]);
    busy_[static_cast<std::size_t>(slot)] = 0;
    --held_;
  }
  cv_.notify_one();
}

std::uint64_t Staging::acquisitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acquisitions_;
}

int Staging::peak_held() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_held_;
}

}  // namespace pooch::mem
