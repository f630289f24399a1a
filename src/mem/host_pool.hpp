// Host (CPU) memory accounting for swapped-out feature maps.
//
// Swap destinations are pinned-host buffers in the real system; here we
// track bytes against the machine's host capacity (192 GB on the x86 box,
// 1 TB on POWER9) so a pathological classification that over-swaps is
// detected rather than silently accepted. The simulator charges each
// swap-out and returns the bytes when the host copy dies;
// exec::AsyncExecutor reserves its whole host slab once per run.
//
// Plain counters: each pool is used from one thread at a time.
#pragma once

#include <cstddef>

namespace pooch::mem {

class HostPool {
 public:
  explicit HostPool(std::size_t capacity) : capacity_(capacity) {}

  /// Reserve `bytes`; returns false, leaving the pool unchanged, when
  /// host memory would be exceeded.
  bool reserve(std::size_t bytes);
  /// Return `bytes`; throws pooch::Error, leaving the pool unchanged,
  /// when fewer are in use.
  void release(std::size_t bytes);

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const { return in_use_; }
  std::size_t peak_in_use() const { return peak_in_use_; }

 private:
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
};

}  // namespace pooch::mem
