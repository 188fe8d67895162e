// Operation-level fault injector.
//
// The reliable executors (src/reliable) route every scalar multiply and
// add through an injector; the injector decides, per execution, whether to
// corrupt the value according to the configured fault model, and can say
// how many executions ahead are certain to be clean. This is the
// library's equivalent of PyTorchFI-style frameworks, but at the
// granularity the paper's Algorithm 3 operates on: a single arithmetic
// operation on a single processing element.
#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/fault_model.hpp"
#include "faultsim/geometric.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hybridcnn::faultsim {

/// Statistics accumulated by an injector across a campaign.
struct InjectorStats {
  std::uint64_t executions = 0;  ///< scalar op executions observed
  std::uint64_t faults = 0;      ///< executions that were corrupted
};

// Campaign workers snapshot and diff these counters by value; the
// equivalence tests compare them bit-for-bit against the generic path.
HYBRIDCNN_CONTRACT_TRIVIAL_PAYLOAD(InjectorStats);

/// Decides per scalar-operation execution whether an SEU corrupts it.
///
/// Stochastic kinds run a countdown instead of one Bernoulli draw per
/// execution: the number of clean executions before the next upset (for
/// kIntermittent, the next burst ignition) is drawn from Geometric(p) by
/// inversion (geometric.hpp), filter() counts it down and fires at zero,
/// and the bit is drawn at the fault. The gaps of a per-execution
/// Bernoulli(p) process are i.i.d. Geometric(p), so the fault process is
/// the same in distribution; the realisation for a given seed is not the
/// one the per-execution draws gave. Because the countdown is known, a
/// kernel can ask how far the next upset is (clean_executions_ahead()),
/// run that many executions as raw arithmetic and replay them in bulk
/// (advance_clean()).
///
/// Deterministic for a given (config, seed) pair; the round-robin PE
/// schedule makes permanent and intermittent faults reproducible as well.
class FaultInjector {
 public:
  FaultInjector() : FaultInjector(FaultConfig{}, 0) {}

  FaultInjector(const FaultConfig& config, std::uint64_t seed);

  /// Filters one operand/result value for the next operation execution.
  /// Returns `clean` unchanged when no fault fires, otherwise the value
  /// with one bit flipped per the fault model.
  float filter(float clean) noexcept;

  /// True iff the *next* call to filter() will corrupt its value.
  [[nodiscard]] bool next_is_faulty() const noexcept;

  /// Number of upcoming filter() calls that are certain to return their
  /// value unchanged; kUnboundedGap when none can ever fault. Per kind:
  ///   * kNone, or probability <= 0: kUnboundedGap;
  ///   * kTransient: the countdown to the next upset;
  ///   * kIntermittent: the ignition countdown while no burst is live
  ///     (it counts executions on burst-free PEs), 0 while any PE has a
  ///     live burst;
  ///   * kPermanent: the distance to the next turn of a faulty PE
  ///     (kUnboundedGap when no PE is faulty).
  [[nodiscard]] std::uint64_t clean_executions_ahead() const noexcept;

  /// Replays `n` filter() calls that clean_executions_ahead() guarantees
  /// clean: afterwards stats(), next_pe(), the countdown and the RNG state
  /// are exactly what `n` filter() calls would have left. Precondition:
  /// n <= clean_executions_ahead() (asserted in debug builds).
  void advance_clean(std::uint64_t n) noexcept;

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] const InjectorStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = InjectorStats{}; }

  /// Index of the PE the next operation will be scheduled on.
  [[nodiscard]] int next_pe() const noexcept { return next_pe_; }

  /// Number of permanently faulty PEs in this compute unit (kPermanent).
  [[nodiscard]] int permanent_faulty_pes() const noexcept;

 private:
  /// One countdown step of a transient upset / burst ignition: true when
  /// it fires, in which case the next gap is drawn.
  bool countdown_fires() noexcept;

  FaultConfig config_;
  util::Rng rng_;
  GeometricGap gap_;
  InjectorStats stats_;
  int next_pe_ = 0;
  std::uint64_t countdown_ = kUnboundedGap;  ///< kTransient/kIntermittent
  int live_bursts_ = 0;                      ///< kIntermittent
  std::vector<std::uint8_t> pe_permanently_faulty_;
  std::vector<std::uint8_t> pe_burst_active_;
  /// kPermanent: clean turns from each PE up to the next faulty PE's turn.
  std::vector<std::uint64_t> clean_turns_from_pe_;
};

}  // namespace hybridcnn::faultsim
