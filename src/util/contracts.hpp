// Compile-time contract assertions.
//
// The repo's reliability guarantees rest on invariants that are written
// down in per-subsystem READMEs but were historically only checked at
// runtime by tests (bit-identity sweeps, campaign equivalence). This
// header turns the machine-checkable subset into static_asserts with a
// uniform "[contract] " message prefix, so a violating refactor fails to
// *compile* instead of surfacing as a flaky bit-identity test. Subsystems
// include this header and instantiate the checks next to the types they
// guard (util/ sits below every other layer, so the dependency only
// points downward):
//
//   * reliable/executor.hpp — executor finality (static dispatch folds
//     mul_inline/add_inline only because the schemes are final) and
//     Scheme enum / dispatch-table agreement;
//   * runtime/isa.hpp + reliable/static_dispatch.hpp — ISA lane-width /
//     pack-padding consistency (a vector that is not exactly
//     kFloatLanes floats breaks the lane-padded pack and tail scatter);
//   * reliable/checkpoint.hpp, core/fault_seed_stream.hpp,
//     faultsim/* — trivially-copyable checkpoint/seed/stat payloads
//     (committed state is modelled as an atomic NVM write; that model is
//     only honest for memcpy-able types).
//
// The textual-contract half (banned nondeterminism sources, RNG seed
// provenance, FP-contraction hygiene, const infer paths) is enforced by
// tools/contract_lint — see tools/contract_lint/README.md.
#pragma once

#include <type_traits>

/// static_assert with the uniform contract prefix. Use for ad-hoc
/// subsystem invariants; prefer the named macros below when one fits.
#define HYBRIDCNN_CONTRACT(expr, msg) \
  static_assert(expr, "[contract] " msg)

/// The type is final: the statically dispatched kernels call its
/// non-virtual *_inline methods directly, which is only equivalent to
/// virtual dispatch if no subclass can override behaviour.
#define HYBRIDCNN_CONTRACT_FINAL(T)        \
  static_assert(std::is_final_v<T>,        \
                "[contract] " #T           \
                " must be final: static dispatch bypasses its vtable")

/// The type is a bitwise-copyable payload: checkpoint commits, seed
/// cursors and stat counters are modelled as atomic memcpy-able state
/// (double-buffered NVM slots, value-semantic streams). A non-trivial
/// copy would make that model dishonest.
#define HYBRIDCNN_CONTRACT_TRIVIAL_PAYLOAD(T)                         \
  static_assert(std::is_trivially_copyable_v<T>,                      \
                "[contract] " #T                                      \
                " must be trivially copyable: it is committed/copied " \
                "as raw bytes")

/// Two constants agree (enum count vs dispatch-table extent, class
/// constant vs table entry). Spelling both sides at the assert site
/// keeps the table and the enum from drifting apart silently.
#define HYBRIDCNN_CONTRACT_AGREE(a, b, msg) \
  static_assert((a) == (b), "[contract] " msg)

namespace hybridcnn::util::contracts {

/// True iff n is a power of two (and nonzero). Vector lane counts and
/// pack paddings must be powers of two for the masked-tail and padding
/// arithmetic in the SIMD kernels to be exact.
constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// True iff `padded` is `n` rounded up to a multiple of `align`. The
/// lane-padded packs guarantee exactly this; anything looser would let
/// a tail block read or scatter out of bounds.
constexpr bool is_padded_to(std::size_t padded, std::size_t n,
                            std::size_t align) noexcept {
  return padded >= n && padded % align == 0 && padded - n < align;
}

}  // namespace hybridcnn::util::contracts
