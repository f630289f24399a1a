// Host (CPU) memory accounting for swapped-out feature maps.
//
// Swap destinations are pinned-host buffers in the real system; here we
// track bytes against the machine's host capacity (192 GB on the x86 box,
// 1 TB on POWER9) so a pathological classification that over-swaps is
// detected rather than silently accepted.
//
// Accounting is lock-free so the AsyncExecutor's copy workers can
// reserve/release concurrently with the compute thread; the serial
// simulator pays only an uncontended atomic per swap.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace pooch::mem {

class HostPool {
 public:
  explicit HostPool(std::size_t capacity) : capacity_(capacity) {}

  /// Reserve `bytes`; returns false when host memory would be exceeded.
  /// Thread-safe: concurrent reservations never over-commit capacity.
  bool reserve(std::size_t bytes);
  /// Return `bytes`; throws pooch::Error, leaving the pool unchanged,
  /// when fewer are in use.
  void release(std::size_t bytes);

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }
  std::size_t peak_in_use() const {
    return peak_in_use_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_;
  std::atomic<std::size_t> in_use_{0};
  std::atomic<std::size_t> peak_in_use_{0};
};

/// Fixed-slot staging area modelling the pinned bounce buffers a real
/// DMA engine copies through. The default two slots give the classic
/// double-buffered pipeline: one transfer retires to the swap file while
/// the next fills, and a third must wait — this is the backpressure that
/// keeps an arbitrarily wide D2H worker pool from pretending to retire
/// unbounded transfers at once.
class Staging {
 public:
  explicit Staging(int slots = 2);

  /// Block until a slot is free, claim it, and return its index.
  int acquire();
  void release(int slot);

  int slots() const { return static_cast<int>(busy_.size()); }
  /// Total acquisitions served (stats; equals completed transfers).
  std::uint64_t acquisitions() const;
  /// High-water mark of concurrently held slots.
  int peak_held() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> busy_;
  std::uint64_t acquisitions_ = 0;
  int held_ = 0;
  int peak_held_ = 0;
};

}  // namespace pooch::mem
