// Dense single-precision matrix multiply on raw pointers.
//
// These are the innermost loops of the conv/fc kernels. All variants
// funnel into one cache-blocked, packed-panel GEMM core (see matmul.cpp
// and docs/KERNELS.md): B is packed into NR-wide column panels, A into
// MR-tall row panels, and a 12 x 16 micro-kernel whose tile lives in
// vector registers does the arithmetic. Parallelism (via the context's
// thread pool) partitions only over rows of C — independent outputs — so
// for every output element the k-dimension is accumulated in ascending
// order exactly like the scalar *_ref oracles below: the fast kernels
// are bit-identical to the references at any thread count.
//
// The *_ref functions are the original naive scalar loops, kept compiled
// in as oracles for tests and as the baseline the kernel bench
// (bench_kernels) measures speedup against.
#pragma once

#include <cstdint>

#include "kernels/kernel_context.hpp"

namespace pooch::kernels {

/// C(m,n) = A(m,k) * B(k,n); C is overwritten (no pre-zeroing needed).
void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n,
            KernelContext& ctx = KernelContext::serial());

/// C(m,n) += A(m,k) * B(k,n).
void matmul_acc(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n,
                KernelContext& ctx = KernelContext::serial());

/// C(m,n) = A^T(m,k) * B(k,n) where A is stored (k,m); C is overwritten.
void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n,
               KernelContext& ctx = KernelContext::serial());

/// C(m,n) = A(m,k) * B^T(k,n) where B is stored (n,k); C is overwritten.
void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n,
               KernelContext& ctx = KernelContext::serial());

/// C(m,n) += A(m,k) * B^T(k,n) where B is stored (n,k).
void matmul_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n,
                   KernelContext& ctx = KernelContext::serial());

// --- scalar reference oracles (single-threaded, unblocked) ---
void matmul_ref(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n);
void matmul_acc_ref(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);
void matmul_at_ref(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n);
void matmul_bt_ref(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n);
void matmul_bt_acc_ref(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace pooch::kernels
