// Shared ISA selection for hand-vectorized kernels.
//
// One compile-time ladder picks the widest float vector the target
// supports — AVX-512 (16 lanes), AVX (8) or any other target (4, via
// 128-bit vectors: SSE/NEON) — using GCC/Clang vector extensions, which
// compile to plain SIMD without intrinsics. The build is GCC/Clang-only
// (the bit-identity contract rests on -ffp-contract=off), so there is no
// scalar tier. Both explicit-SIMD consumers sit on this header:
//
//   * nn/gemm.cpp — the blocked GEMM micro-kernel and the A * B^T dot
//     kernel size their register tiles from kFloatLanes (the accumulator
//     block must fill but not spill the vector register file);
//   * reliable/static_dispatch.hpp — the fault-free qualified kernels
//     vectorize across independent output channels in kFloatLanes-wide
//     blocks (channel-axis lanes, never the reduction axis, so every
//     lane reproduces the scalar operation order bit for bit).
#pragma once

#include <cstddef>

#include "util/contracts.hpp"

#if !defined(__GNUC__)
#error "hybridcnn requires GCC or Clang (GNU vector extensions)"
#endif

namespace hybridcnn::runtime::isa {

#if defined(__AVX512F__)
inline constexpr std::size_t kFloatLanes = 16;  // one zmm
typedef float VecF __attribute__((vector_size(64)));
inline constexpr const char* kIsaName = "avx512";
#elif defined(__AVX__)
inline constexpr std::size_t kFloatLanes = 8;  // one ymm
typedef float VecF __attribute__((vector_size(32)));
inline constexpr const char* kIsaName = "avx";
#else
inline constexpr std::size_t kFloatLanes = 4;  // one xmm / NEON quad
typedef float VecF __attribute__((vector_size(16)));
inline constexpr const char* kIsaName = "vec128";
#endif

// Lane-width contracts every SIMD consumer leans on: the lane-padded
// channel blocks in the reliable kernels and the GEMM register tiles
// assume the vector is exactly kFloatLanes floats and that lane counts
// are powers of two (mask and padding arithmetic uses & / % freely).
HYBRIDCNN_CONTRACT(util::contracts::is_pow2(kFloatLanes),
                   "kFloatLanes must be a power of two: pack paddings and "
                   "tail masks round with power-of-two arithmetic");
HYBRIDCNN_CONTRACT(sizeof(VecF) == kFloatLanes * sizeof(float),
                   "VecF must hold exactly kFloatLanes floats: loadu/storeu "
                   "move sizeof(VecF) bytes and kernels step kFloatLanes");

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

}  // namespace hybridcnn::runtime::isa
