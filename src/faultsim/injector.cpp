#include "faultsim/injector.hpp"

#include <algorithm>
#include <cassert>

#include "faultsim/bitflip.hpp"

namespace hybridcnn::faultsim {

FaultInjector::FaultInjector(const FaultConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed, /*stream=*/0xFA17),
      gap_(config.probability) {
  const int pes = std::max(1, config_.num_pes);
  pe_permanently_faulty_.assign(static_cast<std::size_t>(pes), 0);
  pe_burst_active_.assign(static_cast<std::size_t>(pes), 0);
  switch (config_.kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kTransient:
    case FaultKind::kIntermittent:
      countdown_ = gap_.draw(rng_);
      break;
    case FaultKind::kPermanent: {
      for (auto& flag : pe_permanently_faulty_) {
        flag = rng_.bernoulli(config_.probability) ? 1 : 0;
      }
      // Walk the ring backwards from a faulty PE, so each PE's distance
      // is its successor's plus one (0 on a faulty PE).
      clean_turns_from_pe_.assign(pe_permanently_faulty_.size(),
                                  kUnboundedGap);
      const auto first = std::find(pe_permanently_faulty_.begin(),
                                   pe_permanently_faulty_.end(), 1);
      if (first == pe_permanently_faulty_.end()) break;
      const std::size_t n = pe_permanently_faulty_.size();
      const auto start =
          static_cast<std::size_t>(first - pe_permanently_faulty_.begin());
      std::uint64_t turns = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t pe = (start + n - k) % n;
        turns = pe_permanently_faulty_[pe] != 0 ? 0 : turns + 1;
        clean_turns_from_pe_[pe] = turns;
      }
      break;
    }
  }
}

bool FaultInjector::next_is_faulty() const noexcept {
  const auto pe = static_cast<std::size_t>(next_pe_);
  switch (config_.kind) {
    case FaultKind::kNone:
      return false;
    case FaultKind::kTransient:
      return countdown_ == 0;
    case FaultKind::kIntermittent:
      return pe_burst_active_[pe] != 0 || countdown_ == 0;
    case FaultKind::kPermanent:
      return pe_permanently_faulty_[pe] != 0;
  }
  return false;
}

std::uint64_t FaultInjector::clean_executions_ahead() const noexcept {
  switch (config_.kind) {
    case FaultKind::kNone:
      return kUnboundedGap;
    case FaultKind::kTransient:
      return countdown_;
    case FaultKind::kIntermittent:
      return live_bursts_ > 0 ? 0 : countdown_;
    case FaultKind::kPermanent:
      return clean_turns_from_pe_[static_cast<std::size_t>(next_pe_)];
  }
  return 0;
}

void FaultInjector::advance_clean(std::uint64_t n) noexcept {
  assert(n <= clean_executions_ahead());
  stats_.executions += n;
  const auto pes = static_cast<std::uint64_t>(pe_permanently_faulty_.size());
  next_pe_ = static_cast<int>(
      (static_cast<std::uint64_t>(next_pe_) + n % pes) % pes);
  // Every replayed execution ran on a burst-free PE (n > 0 implies no
  // live burst), so each one is a countdown step; kUnboundedGap stays.
  if (countdown_ != kUnboundedGap) countdown_ -= n;
}

int FaultInjector::permanent_faulty_pes() const noexcept {
  int n = 0;
  for (const auto flag : pe_permanently_faulty_) n += flag;
  return n;
}

bool FaultInjector::countdown_fires() noexcept {
  if (countdown_ == kUnboundedGap) return false;
  if (countdown_ > 0) {
    --countdown_;
    return false;
  }
  countdown_ = gap_.draw(rng_);
  return true;
}

float FaultInjector::filter(float clean) noexcept {
  ++stats_.executions;
  const auto pe = static_cast<std::size_t>(next_pe_);
  next_pe_ = (next_pe_ + 1) % static_cast<int>(pe_permanently_faulty_.size());

  bool fault = false;
  switch (config_.kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kTransient:
      fault = countdown_fires();
      break;
    case FaultKind::kIntermittent:
      if (pe_burst_active_[pe] != 0) {
        fault = true;
        if (!rng_.bernoulli(config_.burst_continue)) {
          pe_burst_active_[pe] = 0;
          --live_bursts_;
        }
      } else if (countdown_fires()) {
        fault = true;
        if (rng_.bernoulli(config_.burst_continue)) {
          pe_burst_active_[pe] = 1;
          ++live_bursts_;
        }
      }
      break;
    case FaultKind::kPermanent:
      fault = pe_permanently_faulty_[pe] != 0;
      break;
  }

  if (!fault) return clean;
  ++stats_.faults;
  const int bit = config_.bit >= 0
                      ? config_.bit
                      : static_cast<int>(rng_.uniform_int(0, 31));
  return flip_bit(clean, bit);
}

}  // namespace hybridcnn::faultsim
