// Shared ISA selection for hand-vectorized kernels.
//
// One compile-time ladder picks the widest float vector the target
// supports — AVX-512 (16 lanes), AVX (8), any other GCC/clang target
// (4, via 128-bit vectors: SSE/NEON), or no vectors at all — using
// GCC/clang vector extensions, which compile to plain SIMD without
// intrinsics. Both explicit-SIMD consumers sit on this header:
//
//   * nn/gemm.cpp — the blocked GEMM micro-kernel sizes its register
//     tile from kFloatLanes (the accumulator block must fill but not
//     spill the vector register file);
//   * reliable/static_dispatch.hpp — the fault-free qualified kernels
//     vectorize across independent output channels in kFloatLanes-wide
//     blocks (channel-axis lanes, never the reduction axis, so every
//     lane reproduces the scalar operation order bit for bit).
//
// When HYBRIDCNN_ISA_SIMD is not defined (non-GNU compilers), VecF and
// the load/store helpers do not exist; consumers must provide a scalar
// fallback path behind the same macro.
#pragma once

#include <cstddef>

#include "util/contracts.hpp"

namespace hybridcnn::runtime::isa {

#if defined(__GNUC__) && defined(__AVX512F__)
#define HYBRIDCNN_ISA_SIMD 1
inline constexpr std::size_t kFloatLanes = 16;  // one zmm
typedef float VecF __attribute__((vector_size(64)));
inline constexpr const char* kIsaName = "avx512";
#elif defined(__GNUC__) && defined(__AVX__)
#define HYBRIDCNN_ISA_SIMD 1
inline constexpr std::size_t kFloatLanes = 8;  // one ymm
typedef float VecF __attribute__((vector_size(32)));
inline constexpr const char* kIsaName = "avx";
#elif defined(__GNUC__)
#define HYBRIDCNN_ISA_SIMD 1
inline constexpr std::size_t kFloatLanes = 4;  // one xmm / NEON quad
typedef float VecF __attribute__((vector_size(16)));
inline constexpr const char* kIsaName = "vec128";
#else
inline constexpr std::size_t kFloatLanes = 1;
inline constexpr const char* kIsaName = "scalar";
#endif

// Lane-width contracts every SIMD consumer leans on: the lane-padded
// channel blocks in the reliable kernels and the GEMM register tiles
// assume the vector is exactly kFloatLanes floats and that lane counts
// are powers of two (mask and padding arithmetic uses & / % freely).
HYBRIDCNN_CONTRACT(util::contracts::is_pow2(kFloatLanes),
                   "kFloatLanes must be a power of two: pack paddings and "
                   "tail masks round with power-of-two arithmetic");
#ifdef HYBRIDCNN_ISA_SIMD
HYBRIDCNN_CONTRACT(sizeof(VecF) == kFloatLanes * sizeof(float),
                   "VecF must hold exactly kFloatLanes floats: loadu/storeu "
                   "move sizeof(VecF) bytes and kernels step kFloatLanes");
#endif

#ifdef HYBRIDCNN_ISA_SIMD

/// All lanes set to `x`. The scalar-vector binop broadcasts in one
/// instruction; subtracting the zero vector is an exact IEEE identity
/// for every bit pattern (including -0.0, infinities and NaN payloads),
/// so the compiler folds it away — unlike a per-lane insert loop, which
/// GCC can lower to a chain of masked broadcasts.
inline VecF splat(float x) noexcept { return x - VecF{}; }

/// Unaligned vector load.
inline VecF loadu(const float* p) noexcept {
  VecF v;
  __builtin_memcpy(&v, p, sizeof(VecF));
  return v;
}

/// Unaligned vector store.
inline void storeu(float* p, const VecF& v) noexcept {
  __builtin_memcpy(p, &v, sizeof(VecF));
}

#endif  // HYBRIDCNN_ISA_SIMD

}  // namespace hybridcnn::runtime::isa
