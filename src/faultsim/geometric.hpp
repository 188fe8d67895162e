// Geometric gap sampling for sparse Bernoulli processes.
//
// With per-trial success probability p, the number of failures before the
// next success is Geometric(p), and the gaps between successes of an
// i.i.d. Bernoulli(p) process are i.i.d. Geometric(p). Drawing the gap by
// inversion costs one uniform per success instead of one Bernoulli trial
// per trial. Both fault samplers use it: the operation-level injector's
// countdown (injector.hpp) and the bit-error pass over tensors at rest
// (memory_faults.hpp).
#pragma once

#include <cstdint>
#include <limits>

#include "util/rng.hpp"

namespace hybridcnn::faultsim {

/// A gap no run can exhaust: the sampler's answer for p <= 0, and the
/// saturated value of a draw too large for std::uint64_t.
inline constexpr std::uint64_t kUnboundedGap =
    std::numeric_limits<std::uint64_t>::max();

/// Sampler of Geometric(p) gaps, p fixed at construction.
class GeometricGap {
 public:
  explicit GeometricGap(double p) noexcept;

  /// Failures before the next success. Consumes exactly one uniform from
  /// `rng` when 0 < p < 1; consumes nothing and returns kUnboundedGap for
  /// p <= 0 (or NaN), 0 for p >= 1.
  [[nodiscard]] std::uint64_t draw(util::Rng& rng) const noexcept;

  /// The inversion itself, floor(log1p(-u) / log1p(-p)) for a uniform u
  /// in [0, 1) and 0 < p < 1, saturated to kUnboundedGap where the
  /// quotient does not fit (it is never cast out of range).
  [[nodiscard]] std::uint64_t invert(double u) const noexcept;

 private:
  double p_;
  double log_keep_;  ///< log1p(-p): negative for 0 < p < 1
};

}  // namespace hybridcnn::faultsim
