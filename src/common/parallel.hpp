// Grain-based range partitioner on top of ThreadPool.
//
// parallel_for(pool, n, grain, fn) splits [0, n) into at most
// pool->size() contiguous blocks of at least `grain` indices and runs
// fn(begin, end, slot) for each, where `slot` is the block index. Blocks
// are disjoint and cover the range exactly; slot values are dense in
// [0, num_blocks) with num_blocks <= max(1, pool->size()).
//
// This is the scheduling primitive of the numeric kernel layer
// (src/kernels): kernels partition only over *independent* output
// rows/columns/planes/channels, so the floating-point accumulation order
// inside each output element is the same at every thread count — the kernels
// stay bit-identical to their scalar *_ref oracles (see docs/KERNELS.md
// for the determinism argument). The `slot` index keys per-block scratch
// buffers (kernels::KernelContext) so concurrent blocks never share
// workspace.
//
// A null pool, a pool of size 1, or a range smaller than 2*grain all
// degenerate to one inline fn(0, n, 0) call on the calling thread: no
// separate sequential code path is needed, and exceptions propagate
// unchanged (via ThreadPool's first-by-claim-order rule when fanned out).
#pragma once

#include <cstdint>
#include <functional>

#include "common/thread_pool.hpp"

namespace pooch {

/// Number of blocks parallel_for will use for (n, grain) on `pool`;
/// callers sizing per-slot scratch can rely on slot < this value.
int parallel_blocks(const ThreadPool* pool, std::int64_t n,
                    std::int64_t grain);

/// Run fn(begin, end, slot) over a disjoint cover of [0, n).
void parallel_for(ThreadPool* pool, std::int64_t n, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t, int)>&
                      fn);

}  // namespace pooch
