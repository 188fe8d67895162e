#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "nn/gemm_ref.hpp"
#include "runtime/isa.hpp"
#include "runtime/workspace.hpp"

namespace hybridcnn::nn {

namespace {

// Register tile of the blocked micro-kernel, sized from the shared ISA ladder
// (runtime/isa.hpp) so the accumulator block fills (but does not spill)
// the vector register file: 16 zmm accumulators on AVX-512 (8x2 vectors),
// 12 ymm on AVX (6x2), 8 on 128-bit targets (4x2). GCC's auto-vectoriser
// does not handle this loop nest (tested: ~10x slower), hence the
// explicit vectors.
using Vf = runtime::isa::VecF;
constexpr std::size_t kVec = runtime::isa::kFloatLanes;
constexpr std::size_t kMr = kVec == 16 ? 8 : kVec == 8 ? 6 : 4;
constexpr std::size_t kNrVec = 2;
constexpr std::size_t kNr = kVec * kNrVec;
// K-panel depth: one A micro-panel (kMr * kKc floats) plus one B
// micro-panel (kNr * kKc floats) stay cache-resident.
constexpr std::size_t kKc = 256;
// Below this op count the packing + dispatch overhead beats the win: the
// packed entry points fall through to the reference kernels, and
// gemm_a_bt runs its kernel inline without touching the pool.
constexpr std::size_t kSmallProblem = 48 * 48 * 48;

using runtime::isa::splat;

/// Element accessor for the logical [rows x cols] A operand, stored
/// row-major [rows x cols] (ld = cols) or, when `trans`, as [cols x rows]
/// (ld = rows).
inline std::size_t at(std::size_t r, std::size_t c, std::size_t ld,
                      bool trans) noexcept {
  return trans ? c * ld + r : r * ld + c;
}

/// Packs A panel rows [i0, i0+mr) x cols [kb, kb+kc) into p-major
/// micro-panel layout dst[p * kMr + r], zero-padding rows past mr.
void pack_a_panel(const float* a, std::size_t lda, bool trans,
                  std::size_t i0, std::size_t mr, std::size_t kb,
                  std::size_t kc, float* dst) {
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t r = 0; r < kMr; ++r) {
      dst[p * kMr + r] =
          r < mr ? a[at(i0 + r, kb + p, lda, trans)] : 0.0f;
    }
  }
}

/// Packs rows [kb, kb+kc) x cols [j0, j0+nr) of row-major B (ld = ldb)
/// into p-major micro-panel layout dst[p * kNr + c], zero-padding cols
/// past nr.
void pack_b_panel(const float* b, std::size_t ldb, std::size_t j0,
                  std::size_t nr, std::size_t kb, std::size_t kc,
                  float* dst) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = b + (kb + p) * ldb + j0;
    for (std::size_t c = 0; c < kNr; ++c) {
      dst[p * kNr + c] = c < nr ? brow[c] : 0.0f;
    }
  }
}

/// acc[kMr x kNr] = Apanel * Bpanel over kc (acc fully overwritten).
void micro_kernel(const float* __restrict ap, const float* __restrict bp,
                  std::size_t kc, float* __restrict acc) {
  Vf a[kMr][kNrVec];
  for (auto& row : a) {
    for (auto& v : row) v = Vf{};
  }
  for (std::size_t p = 0; p < kc; ++p) {
    Vf b[kNrVec];
    for (std::size_t q = 0; q < kNrVec; ++q) {
      b[q] = runtime::isa::loadu(bp + p * kNr + q * kVec);
    }
    for (std::size_t i = 0; i < kMr; ++i) {
      const Vf av = splat(ap[p * kMr + i]);
      for (std::size_t q = 0; q < kNrVec; ++q) a[i][q] += av * b[q];
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t q = 0; q < kNrVec; ++q) {
      runtime::isa::storeu(acc + i * kNr + q * kVec, a[i][q]);
    }
  }
}

/// Blocked driver: C[m x n] (+)= op(A) * B with op(A) logically [m x k]
/// and B row-major [k x n]. `accumulate` selects += vs =.
///
/// Loop order is kb (serial) -> pack panels -> C tiles (parallel). Each C
/// element is accumulated in fixed k order inside one tile, so the result
/// does not depend on the thread count.
void gemm_blocked(std::size_t m, std::size_t k, std::size_t n,
                  const float* a, std::size_t lda, bool trans_a,
                  const float* b, float* c, bool accumulate,
                  runtime::ComputeContext& ctx) {
  const std::size_t mblocks = (m + kMr - 1) / kMr;
  const std::size_t nblocks = (n + kNr - 1) / kNr;

  runtime::Workspace& shared = ctx.workspace();
  runtime::Workspace::Scope scope(shared);
  float* apack = shared.alloc(mblocks * kMr * kKc);
  float* bpack = shared.alloc(nblocks * kNr * kKc);

  for (std::size_t kb = 0; kb < k; kb += kKc) {
    const std::size_t kc = std::min(kKc, k - kb);
    const bool acc_tile = accumulate || kb > 0;

    // One dispatch packs both panels: indices [0, mblocks) are A panels,
    // [mblocks, mblocks + nblocks) are B panels — disjoint writes.
    ctx.pool().parallel_for(0, mblocks + nblocks, [&](std::size_t t) {
      if (t < mblocks) {
        const std::size_t ib = t;
        pack_a_panel(a, lda, trans_a, ib * kMr, std::min(kMr, m - ib * kMr),
                     kb, kc, apack + ib * kMr * kKc);
      } else {
        const std::size_t jb = t - mblocks;
        pack_b_panel(b, n, jb * kNr, std::min(kNr, n - jb * kNr), kb, kc,
                     bpack + jb * kNr * kKc);
      }
    });

    // Row-major tile order: consecutive tiles in a chunk reuse one A
    // micro-panel.
    ctx.pool().parallel_for(0, mblocks * nblocks, [&](std::size_t t) {
      const std::size_t ib = t / nblocks;
      const std::size_t jb = t % nblocks;
      const std::size_t i0 = ib * kMr;
      const std::size_t j0 = jb * kNr;
      const std::size_t mr = std::min(kMr, m - i0);
      const std::size_t nr = std::min(kNr, n - j0);

      float acc[kMr * kNr];  // fully written by the micro-kernel
      micro_kernel(apack + ib * kMr * kKc, bpack + jb * kNr * kKc, kc, acc);

      for (std::size_t i = 0; i < mr; ++i) {
        float* crow = c + (i0 + i) * n + j0;
        const float* arow = acc + i * kNr;
        if (acc_tile) {
          for (std::size_t j = 0; j < nr; ++j) crow[j] += arow[j];
        } else {
          for (std::size_t j = 0; j < nr; ++j) crow[j] = arow[j];
        }
      }
    });
  }
}

inline bool small_problem(std::size_t m, std::size_t k,
                          std::size_t n) noexcept {
  return m * k * n <= kSmallProblem;
}

// ---- A * B^T: unpacked, row-invariant dot-product kernel ----
//
// B is read in place ([n x k] row-major is already the streaming order of
// a dot product), so there is no pack and no workspace: at m = 1 the
// kernel is one pass over B. Every C element is computed the same way in
// every tile shape — one FMA chain over the full kVec chunks of k, one
// zero-padded tail chunk of exactly k % kVec floats, a fixed-tree
// horizontal sum, then c += s — so each output bit depends only on k and
// the ISA tier, never on m, n, the element's tile or the thread count.

// Register tile: 4 A rows x 4 B rows on AVX-512 (16 accumulators + 4 B
// vectors + 1 A vector of the 32 zmm registers); 2 x 4 on the 16-register
// AVX and 128-bit tiers so the tile does not spill.
constexpr std::size_t kDotRows = kVec == 16 ? 4 : 2;
constexpr std::size_t kDotCols = 4;
// B bytes per column block: the block stays cache-resident while every A
// row strip passes over it.
constexpr std::size_t kDotBlockBytes = 256 * 1024;

/// p[0, len) in the low lanes, zeros above; reads nothing past p[len - 1].
inline Vf load_tail(const float* p, std::size_t len) noexcept {
  Vf v{};
  __builtin_memcpy(&v, p, len * sizeof(float));
  return v;
}

/// W-lane float vector (W a power of two, at most kVec).
template <std::size_t W>
struct VecN {
  typedef float type __attribute__((vector_size(W * sizeof(float))));
};

/// Fixed-tree horizontal sum: the low and high lane halves are added
/// (lane i + lane i + W/2) until two lanes remain.
template <std::size_t W>
inline float hsum(const typename VecN<W>::type& v) noexcept {
  if constexpr (W == 2) {
    return v[0] + v[1];
  } else {
    typename VecN<W / 2>::type lo;
    typename VecN<W / 2>::type hi;
    __builtin_memcpy(&lo, &v, sizeof(lo));
    __builtin_memcpy(&hi, reinterpret_cast<const char*>(&v) + sizeof(lo),
                     sizeof(hi));
    return hsum<W / 2>(lo + hi);
  }
}

/// C[R x Q] += A[R x k] * B[Q x k]^T; A and B rows at stride k, C rows at
/// stride ldc.
template <std::size_t R, std::size_t Q>
void dot_tile(const float* __restrict a, const float* __restrict b,
              std::size_t k, float* __restrict c, std::size_t ldc) {
  Vf acc[R][Q] = {};
  std::size_t p = 0;
  for (; p + kVec <= k; p += kVec) {
    Vf bv[Q];
    for (std::size_t q = 0; q < Q; ++q) {
      bv[q] = runtime::isa::loadu(b + q * k + p);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const Vf av = runtime::isa::loadu(a + r * k + p);
      for (std::size_t q = 0; q < Q; ++q) acc[r][q] += av * bv[q];
    }
  }
  if (const std::size_t tail = k - p; tail != 0) {
    Vf bv[Q];
    for (std::size_t q = 0; q < Q; ++q) bv[q] = load_tail(b + q * k + p, tail);
    for (std::size_t r = 0; r < R; ++r) {
      const Vf av = load_tail(a + r * k + p, tail);
      for (std::size_t q = 0; q < Q; ++q) acc[r][q] += av * bv[q];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < Q; ++q) {
      c[r * ldc + q] += hsum<kVec>(acc[r][q]);
    }
  }
}

/// Rows [i, i + R) of C, columns [j0, j1).
template <std::size_t R>
void a_bt_strip(std::size_t i, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c, std::size_t j0, std::size_t j1) {
  const float* arows = a + i * k;
  float* crows = c + i * n;
  std::size_t j = j0;
  for (; j + kDotCols <= j1; j += kDotCols) {
    dot_tile<R, kDotCols>(arows, b + j * k, k, crows + j, n);
  }
  for (; j < j1; ++j) dot_tile<R, 1>(arows, b + j * k, k, crows + j, n);
}

/// C[:, j0:j1) += A * B[j0:j1)^T: every row of C, columns [j0, j1).
void a_bt_columns(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  const float* b, float* c, std::size_t j0, std::size_t j1) {
  std::size_t i = 0;
  for (; i + kDotRows <= m; i += kDotRows) {
    a_bt_strip<kDotRows>(i, k, n, a, b, c, j0, j1);
  }
  for (; i < m; ++i) a_bt_strip<1>(i, k, n, a, b, c, j0, j1);
}

/// Columns per parallel block: as many B rows as fit kDotBlockBytes, in
/// whole kDotCols groups. Scheduling only — it never changes a bit.
std::size_t a_bt_block_cols(std::size_t k) noexcept {
  const std::size_t rows = kDotBlockBytes / (std::max<std::size_t>(k, 1) *
                                             sizeof(float));
  return std::max(kDotCols, rows / kDotCols * kDotCols);
}

}  // namespace

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, runtime::ComputeContext& ctx) {
  if (m == 0 || n == 0) return;
  if (k == 0 || small_problem(m, k, n)) {
    ref::gemm(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, k, false, b, c, /*accumulate=*/false, ctx);
}

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c) {
  if (m == 0 || n == 0) return;
  if (k == 0 || small_problem(m, k, n)) {
    ref::gemm(m, k, n, a, b, c);
    return;
  }
  gemm(m, k, n, a, b, c, runtime::ComputeContext::global());
}

void gemm_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c, runtime::ComputeContext& ctx) {
  if (small_problem(m, k, n)) {
    ref::gemm_acc(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, k, false, b, c, /*accumulate=*/true, ctx);
}

void gemm_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c) {
  if (small_problem(m, k, n)) {
    ref::gemm_acc(m, k, n, a, b, c);
    return;
  }
  gemm_acc(m, k, n, a, b, c, runtime::ComputeContext::global());
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c, runtime::ComputeContext& ctx) {
  if (small_problem(m, k, n)) {
    ref::gemm_at_b(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, m, true, b, c, /*accumulate=*/true, ctx);
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c) {
  if (small_problem(m, k, n)) {
    ref::gemm_at_b(m, k, n, a, b, c);
    return;
  }
  gemm_at_b(m, k, n, a, b, c, runtime::ComputeContext::global());
}

void gemm_at_b_assign(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c,
                      runtime::ComputeContext& ctx) {
  if (m == 0 || n == 0) return;
  if (k == 0 || small_problem(m, k, n)) {
    std::memset(c, 0, m * n * sizeof(float));
    ref::gemm_at_b(m, k, n, a, b, c);
    return;
  }
  gemm_blocked(m, k, n, a, m, true, b, c, /*accumulate=*/false, ctx);
}

void gemm_at_b_assign(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c) {
  if (m == 0 || n == 0) return;
  if (k == 0 || small_problem(m, k, n)) {
    std::memset(c, 0, m * n * sizeof(float));
    ref::gemm_at_b(m, k, n, a, b, c);
    return;
  }
  gemm_at_b_assign(m, k, n, a, b, c, runtime::ComputeContext::global());
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c, runtime::ComputeContext& ctx) {
  if (small_problem(m, k, n)) {
    a_bt_columns(m, k, n, a, b, c, 0, n);
    return;
  }
  const std::size_t cols = a_bt_block_cols(k);
  ctx.pool().parallel_for(0, (n + cols - 1) / cols, [&](std::size_t jb) {
    a_bt_columns(m, k, n, a, b, c, jb * cols, std::min(n, (jb + 1) * cols));
  });
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c) {
  if (small_problem(m, k, n)) {
    a_bt_columns(m, k, n, a, b, c, 0, n);
    return;
  }
  gemm_a_bt(m, k, n, a, b, c, runtime::ComputeContext::global());
}

}  // namespace hybridcnn::nn
