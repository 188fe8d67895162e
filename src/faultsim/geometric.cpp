#include "faultsim/geometric.hpp"

#include <cmath>

namespace hybridcnn::faultsim {

GeometricGap::GeometricGap(double p) noexcept
    : p_(p), log_keep_(p > 0.0 && p < 1.0 ? std::log1p(-p) : 0.0) {}

std::uint64_t GeometricGap::draw(util::Rng& rng) const noexcept {
  if (!(p_ > 0.0)) return kUnboundedGap;
  if (p_ >= 1.0) return 0;
  return invert(rng.uniform());
}

std::uint64_t GeometricGap::invert(double u) const noexcept {
  // 1 - u lies in (0, 1], so the log is finite and <= 0; the quotient is
  // >= 0 but reaches +inf when log_keep_ underflows for a subnormal p.
  const double gap = std::floor(std::log1p(-u) / log_keep_);
  constexpr double kTwoPow64 = 18446744073709551616.0;
  return gap < kTwoPow64 ? static_cast<std::uint64_t>(gap) : kUnboundedGap;
}

}  // namespace hybridcnn::faultsim
