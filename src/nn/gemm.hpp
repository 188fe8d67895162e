// Dense matrix multiply used by the convolution (im2col) and linear
// layers. Row-major throughout.
//
// gemm, gemm_acc, gemm_at_b and gemm_at_b_assign are cache-blocked and
// panel-packed (GotoBLAS-style KC/MR/NR blocking with a register-tiled
// micro-kernel) and split C tiles across the runtime thread pool. Small
// problems fall through to the naive reference kernels (nn/gemm_ref.hpp)
// where packing overhead would dominate.
//
// gemm_a_bt packs nothing: it streams B ([n x k], the layout Linear stores
// its weights in) in place with a register-tiled dot-product kernel and
// splits C column blocks across the pool. Each C element is computed by
// the same sequence of operations wherever it lands, so its bits depend
// only on k (and the ISA tier): row i of an m-row product equals the
// m = 1 product of row i. Small problems run the same kernel inline.
//
// The K dimension is never parallelised and the per-element accumulation
// order is a pure function of the problem shape, so results are
// bit-identical regardless of thread count — the property the
// fault-campaign analysis relies on.
//
// Every operation, including a multiplication by zero, is executed: the
// reliability analysis depends on knowing exactly which scalar operations
// run, and skipping zero operands would change NaN/Inf propagation.
#pragma once

#include <cstddef>

#include "runtime/compute_context.hpp"

namespace hybridcnn::nn {

// Each kernel comes in two overloads: one taking the ComputeContext to
// run on, and one that resolves the global context lazily — only after
// the small-problem check, so callers doing nothing but tiny GEMMs never
// spin up the global thread pool.

/// C[m x n] = A[m x k] * B[k x n]  (C is overwritten).
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, runtime::ComputeContext& ctx);
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c);

/// C[m x n] += A[m x k] * B[k x n].
void gemm_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c, runtime::ComputeContext& ctx);
void gemm_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c);

/// C[m x n] += A^T[k x m] * B[k x n]  (A stored k-major, i.e. [k x m]).
void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c, runtime::ComputeContext& ctx);
void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c);

/// C[m x n] = A^T[k x m] * B[k x n] (C is overwritten — saves the callers
/// that want a fresh product the memset + accumulate round trip).
void gemm_at_b_assign(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c,
                      runtime::ComputeContext& ctx);
void gemm_at_b_assign(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c);

/// C[m x n] += A[m x k] * B^T[n x k]  (B stored n-major, i.e. [n x k]).
void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c, runtime::ComputeContext& ctx);
void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c);

}  // namespace hybridcnn::nn
