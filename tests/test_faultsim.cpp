// Fault-injection substrate: bit flips, injector fault models, memory
// faults and campaign outcome classification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "faultsim/bitflip.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/fault_model.hpp"
#include "faultsim/geometric.hpp"
#include "faultsim/injector.hpp"
#include "faultsim/memory_faults.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::bits_float;
using hybridcnn::faultsim::CampaignSummary;
using hybridcnn::faultsim::classify;
using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::faultsim::FaultTarget;
using hybridcnn::faultsim::flip_bit;
using hybridcnn::faultsim::float_bits;
using hybridcnn::faultsim::GeometricGap;
using hybridcnn::faultsim::inject_bit_errors;
using hybridcnn::faultsim::inject_exact_flips;
using hybridcnn::faultsim::kUnboundedGap;
using hybridcnn::faultsim::Outcome;
using hybridcnn::faultsim::outcome_name;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

// ---------------------------------------------------------------- bitflip

TEST(BitFlip, IsInvolution) {
  for (int bit = 0; bit < 32; ++bit) {
    const float v = 123.456f;
    EXPECT_EQ(float_bits(flip_bit(flip_bit(v, bit), bit)), float_bits(v));
  }
}

TEST(BitFlip, ChangesValue) {
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_NE(float_bits(flip_bit(1.0f, bit)), float_bits(1.0f));
  }
}

TEST(BitFlip, SignBit) {
  EXPECT_FLOAT_EQ(flip_bit(2.0f, 31), -2.0f);
}

TEST(BitFlip, BitIndexWrapsModulo32) {
  EXPECT_EQ(float_bits(flip_bit(1.0f, 33)), float_bits(flip_bit(1.0f, 1)));
}

TEST(BitFlip, RoundTripThroughBits) {
  const float v = -0.00321f;
  EXPECT_FLOAT_EQ(bits_float(float_bits(v)), v);
}

// --------------------------------------------------------------- injector

TEST(FaultInjector, NoneNeverFaults) {
  FaultInjector inj(FaultConfig{}, 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(inj.filter(1.5f), 1.5f);
  }
  EXPECT_EQ(inj.stats().faults, 0u);
  EXPECT_EQ(inj.stats().executions, 1000u);
}

TEST(FaultInjector, TransientRateMatchesProbability) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 0.1;
  cfg.bit = 0;
  FaultInjector inj(cfg, 2);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) inj.filter(1.0f);
  const double rate =
      static_cast<double>(inj.stats().faults) / static_cast<double>(kN);
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(FaultInjector, DeterministicForSeed) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 0.05;
  cfg.bit = -1;
  FaultInjector a(cfg, 7);
  FaultInjector b(cfg, 7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(float_bits(a.filter(3.25f)), float_bits(b.filter(3.25f)));
  }
}

TEST(FaultInjector, FixedBitFlipsExactlyThatBit) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 1.0;
  cfg.bit = 31;
  FaultInjector inj(cfg, 3);
  EXPECT_FLOAT_EQ(inj.filter(4.0f), -4.0f);
}

TEST(FaultInjector, PermanentFaultyPeFractionApproximatesProbability) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.probability = 0.25;
  cfg.num_pes = 4000;
  FaultInjector inj(cfg, 11);
  EXPECT_NEAR(static_cast<double>(inj.permanent_faulty_pes()) / 4000.0, 0.25,
              0.03);
}

TEST(FaultInjector, PermanentFaultsRepeatOnSamePe) {
  // With every PE faulty, every execution is corrupted — and
  // deterministically predictable via next_is_faulty().
  FaultConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.probability = 1.0;
  cfg.num_pes = 4;
  cfg.bit = 1;
  FaultInjector inj(cfg, 5);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(inj.next_is_faulty());
    EXPECT_NE(float_bits(inj.filter(1.0f)), float_bits(1.0f));
  }
}

TEST(FaultInjector, RoundRobinPeSchedule) {
  FaultConfig cfg;
  cfg.num_pes = 3;
  FaultInjector inj(cfg, 1);
  EXPECT_EQ(inj.next_pe(), 0);
  inj.filter(0.0f);
  EXPECT_EQ(inj.next_pe(), 1);
  inj.filter(0.0f);
  inj.filter(0.0f);
  EXPECT_EQ(inj.next_pe(), 0);
}

TEST(FaultInjector, IntermittentBurstsExceedIndependentRate) {
  // With burst_continue close to 1 the same ignition probability yields
  // far more faults than the independent (transient) model.
  FaultConfig transient;
  transient.kind = FaultKind::kTransient;
  transient.probability = 0.01;
  transient.num_pes = 1;
  FaultInjector ti(transient, 21);

  FaultConfig burst = transient;
  burst.kind = FaultKind::kIntermittent;
  burst.burst_continue = 0.95;
  FaultInjector bi(burst, 21);

  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    ti.filter(1.0f);
    bi.filter(1.0f);
  }
  EXPECT_GT(bi.stats().faults, 5 * ti.stats().faults);
}

TEST(FaultInjector, ResetStatsClears) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 1.0;
  FaultInjector inj(cfg, 1);
  inj.filter(1.0f);
  inj.reset_stats();
  EXPECT_EQ(inj.stats().executions, 0u);
  EXPECT_EQ(inj.stats().faults, 0u);
}

// ------------------------------------------------------ geometric gaps

TEST(GeometricGap, DegenerateProbabilitiesConsumeNoDraws) {
  Rng rng(3);
  const Rng untouched = rng;
  EXPECT_EQ(GeometricGap(1.0).draw(rng), 0u);
  EXPECT_EQ(GeometricGap(2.0).draw(rng), 0u);
  EXPECT_EQ(GeometricGap(0.0).draw(rng), kUnboundedGap);
  EXPECT_EQ(GeometricGap(-1.0).draw(rng), kUnboundedGap);
  EXPECT_EQ(GeometricGap(std::nan("")).draw(rng), kUnboundedGap);
  Rng reference = untouched;
  EXPECT_EQ(rng(), reference());  // no variate was consumed
}

TEST(GeometricGap, InversionIsTheClosedForm) {
  const double p = 0.01;
  const GeometricGap gap(p);
  EXPECT_EQ(gap.invert(0.0), 0u);
  for (const double u : {0.001, 0.25, 0.5, 0.9, 0.999999}) {
    const double expected = std::floor(std::log1p(-u) / std::log1p(-p));
    EXPECT_EQ(gap.invert(u), static_cast<std::uint64_t>(expected)) << u;
  }
  // One uniform per draw: the draw equals the inversion of that uniform.
  Rng a(17);
  Rng b(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gap.draw(a), gap.invert(b.uniform()));
}

TEST(GeometricGap, HugeGapsSaturateInsteadOfOverflowing) {
  // p = 1e-19: u = 0.5 gives ~6.9e18 (fits in 64 bits), u -> 1 gives
  // ~3.7e20, which must saturate rather than be cast out of range.
  const GeometricGap tiny(1e-19);
  EXPECT_LT(tiny.invert(0.5), kUnboundedGap);
  EXPECT_GT(tiny.invert(0.5), 6'000'000'000'000'000'000ull);
  EXPECT_EQ(tiny.invert(1.0 - 0x1p-53), kUnboundedGap);
  // A subnormal p underflows log1p(-p) to (nearly) zero: the quotient is
  // +inf or astronomically large, never a wrapped integer.
  const GeometricGap subnormal(std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(subnormal.invert(0.5), kUnboundedGap);
  EXPECT_EQ(subnormal.invert(0.0), 0u);
}

// -------------------------------------------------- injector countdown

struct CountdownCase {
  FaultKind kind;
  double probability;
  int num_pes;
};

/// Fault environments for the replay property: every kind, the
/// degenerate probabilities (0 and 1) and rates dense enough that the
/// replay crosses many faults, bursts and faulty-PE turns.
const std::vector<CountdownCase> kCountdownCases = {
    {FaultKind::kNone, 0.0, 7},          {FaultKind::kTransient, 1e-3, 128},
    {FaultKind::kTransient, 0.3, 5},     {FaultKind::kTransient, 1.0, 3},
    {FaultKind::kTransient, 0.0, 4},     {FaultKind::kIntermittent, 2e-3, 6},
    {FaultKind::kIntermittent, 0.05, 1}, {FaultKind::kPermanent, 0.3, 8},
    {FaultKind::kPermanent, 0.0, 5},     {FaultKind::kPermanent, 1.0, 3},
    {FaultKind::kPermanent, 0.02, 128},
};

std::string describe(const CountdownCase& c, FaultTarget target) {
  return "kind " + std::to_string(static_cast<int>(c.kind)) + " p " +
         std::to_string(c.probability) + " pes " + std::to_string(c.num_pes) +
         " target " + std::to_string(static_cast<int>(target));
}

void expect_injectors_equal(const FaultInjector& a, const FaultInjector& b) {
  EXPECT_EQ(a.stats().executions, b.stats().executions);
  EXPECT_EQ(a.stats().faults, b.stats().faults);
  EXPECT_EQ(a.next_pe(), b.next_pe());
  EXPECT_EQ(a.clean_executions_ahead(), b.clean_executions_ahead());
  EXPECT_EQ(a.next_is_faulty(), b.next_is_faulty());
}

TEST(FaultInjectorCountdown, AdvanceCleanEqualsFilterCalls) {
  Rng pick(99);
  for (const CountdownCase& c : kCountdownCases) {
    for (const FaultTarget target :
         {FaultTarget::kResult, FaultTarget::kOperandA,
          FaultTarget::kOperandB}) {
      SCOPED_TRACE(describe(c, target));
      FaultConfig cfg;
      cfg.kind = c.kind;
      cfg.target = target;
      cfg.probability = c.probability;
      cfg.num_pes = c.num_pes;
      cfg.burst_continue = 0.6;
      cfg.bit = -1;
      FaultInjector bulk(cfg, 1234);
      FaultInjector single(cfg, 1234);
      for (int round = 0; round < 300; ++round) {
        const std::uint64_t ahead = bulk.clean_executions_ahead();
        ASSERT_EQ(ahead, single.clean_executions_ahead());
        const auto n = static_cast<std::uint64_t>(pick.uniform_int(
            0, static_cast<std::int64_t>(std::min<std::uint64_t>(ahead,
                                                                 4000))));
        bulk.advance_clean(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          const float v = static_cast<float>(i) * 0.75f - 3.0f;
          ASSERT_EQ(float_bits(single.filter(v)), float_bits(v))
              << "a replayed execution must be clean";
        }
        expect_injectors_equal(bulk, single);
        // Step both over the next (possibly faulty) executions.
        for (std::int64_t k = pick.uniform_int(0, 3); k > 0; --k) {
          const bool faulty = single.next_is_faulty();
          const float v = 1.5f + static_cast<float>(k);
          const float out = single.filter(v);
          EXPECT_EQ(faulty, float_bits(out) != float_bits(v));
          ASSERT_EQ(float_bits(bulk.filter(v)), float_bits(out));
        }
      }
      expect_injectors_equal(bulk, single);
      // The RNG state matches too: the continuations agree bit for bit.
      for (int i = 0; i < 10000; ++i) {
        const float v = 0.1f * static_cast<float>(i % 97) - 2.0f;
        ASSERT_EQ(float_bits(bulk.filter(v)), float_bits(single.filter(v)))
            << "continuation differs at call " << i;
      }
      expect_injectors_equal(bulk, single);
    }
  }
}

TEST(FaultInjectorCountdown, AheadIsExactForEveryKind) {
  // clean_executions_ahead() counts the clean filter() calls before the
  // next fault exactly: that many calls are clean, and (when bounded)
  // the next one faults — except for kIntermittent while a burst is live,
  // where 0 only says "not certain".
  for (const CountdownCase& c : kCountdownCases) {
    SCOPED_TRACE(describe(c, FaultTarget::kResult));
    FaultConfig cfg;
    cfg.kind = c.kind;
    cfg.probability = c.probability;
    cfg.num_pes = c.num_pes;
    cfg.bit = 3;
    FaultInjector inj(cfg, 55);
    for (int fault = 0; fault < 200; ++fault) {
      const std::uint64_t ahead = inj.clean_executions_ahead();
      if (ahead == kUnboundedGap) {
        for (int i = 0; i < 1000; ++i) ASSERT_EQ(inj.filter(1.0f), 1.0f);
        break;
      }
      for (std::uint64_t i = 0; i < std::min<std::uint64_t>(ahead, 20000);
           ++i) {
        ASSERT_EQ(inj.filter(1.0f), 1.0f);
      }
      if (ahead > 20000) {
        inj.advance_clean(ahead - 20000);
      }
      const std::uint64_t faults = inj.stats().faults;
      // kIntermittent with a burst live on another PE: ahead is 0, but
      // the next call may be clean.
      const bool uncertain = c.kind == FaultKind::kIntermittent &&
                             !inj.next_is_faulty() && ahead == 0;
      inj.filter(1.0f);
      if (!uncertain) {
        ASSERT_EQ(inj.stats().faults, faults + 1);
      }
    }
  }
}

/// Faults in `n` executions of a fresh injector, skipping the clean
/// stretches with advance_clean().
std::uint64_t faults_in(FaultInjector& inj, std::uint64_t n) {
  while (n > 0) {
    const std::uint64_t skip = std::min(n, inj.clean_executions_ahead());
    inj.advance_clean(skip);
    n -= skip;
    if (n == 0) break;
    inj.filter(1.0f);
    --n;
  }
  return inj.stats().faults;
}

struct Moments {
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased sample variance
};

Moments moments_of(const std::vector<std::uint64_t>& xs) {
  Moments m;
  for (const std::uint64_t x : xs) m.mean += static_cast<double>(x);
  m.mean /= static_cast<double>(xs.size());
  for (const std::uint64_t x : xs) {
    const double d = static_cast<double>(x) - m.mean;
    m.variance += d * d;
  }
  m.variance /= static_cast<double>(xs.size() - 1);
  return m;
}

/// Checks per-run fault counts against Binomial(n, p): sample mean and
/// variance each within 5 standard errors of the binomial values (the
/// standard errors from the binomial's own second and fourth moments).
void expect_binomial(const std::vector<std::uint64_t>& counts, double n,
                     double p) {
  const auto runs = static_cast<double>(counts.size());
  const Moments m = moments_of(counts);
  const double mean = n * p;
  const double var = n * p * (1.0 - p);
  const double mu4 = var * (1.0 + 3.0 * (n - 2.0) * p * (1.0 - p));
  const double se_mean = std::sqrt(var / runs);
  const double se_var =
      std::sqrt((mu4 - var * var * (runs - 3.0) / (runs - 1.0)) / runs);
  EXPECT_NEAR(m.mean, mean, 5.0 * se_mean) << "p " << p;
  EXPECT_NEAR(m.variance, var, 5.0 * se_var) << "p " << p;
}

/// Pearson chi-square of gaps against Geometric(p) over 16 bins of
/// (near-)equal probability; 15 degrees of freedom.
double geometric_chi_square(const std::vector<std::uint64_t>& gaps,
                            double p) {
  constexpr int kBins = 16;
  const double log_keep = std::log1p(-p);
  std::vector<double> edges;  // bin b is [edges[b], edges[b + 1])
  for (int b = 0; b < kBins; ++b) {
    edges.push_back(std::ceil(
        std::log1p(-static_cast<double>(b) / kBins) / log_keep));
  }
  edges.push_back(std::numeric_limits<double>::infinity());
  const auto survival = [&](double k) {  // P(gap >= k)
    return std::isinf(k) ? 0.0 : std::exp(k * log_keep);
  };
  std::vector<double> observed(kBins, 0.0);
  for (const std::uint64_t g : gaps) {
    const auto it = std::upper_bound(edges.begin(), edges.end(),
                                     static_cast<double>(g));
    observed[static_cast<std::size_t>(it - edges.begin() - 1)] += 1.0;
  }
  double chi2 = 0.0;
  for (int b = 0; b < kBins; ++b) {
    const double expected = static_cast<double>(gaps.size()) *
                            (survival(edges[b]) - survival(edges[b + 1]));
    const double d = observed[static_cast<std::size_t>(b)] - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

// The chi-square(15) quantile at 0.999: a correct sampler fails one seed
// in a thousand, and the seeds below are fixed.
constexpr double kChiSquare15At999 = 37.70;

FaultConfig transient_at(double p) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = p;
  cfg.bit = 0;
  return cfg;
}

TEST(FaultInjectorCountdown, FaultCountsAndGapsMatchBernoulliProcess) {
  constexpr std::size_t kRuns = 4000;
  for (const double p : {1e-7, 1e-5, 1e-3}) {
    SCOPED_TRACE(p);
    // About 20 faults per run: Binomial(n, p) with n = 20 / p.
    const auto n = static_cast<std::uint64_t>(20.0 / p);
    std::vector<std::uint64_t> counts;
    std::vector<std::uint64_t> gaps;
    for (std::size_t run = 0; run < kRuns; ++run) {
      FaultInjector inj(transient_at(p), 9000 + run);
      gaps.push_back(inj.clean_executions_ahead());
      counts.push_back(faults_in(inj, n));
      // Gaps after each fault: the countdown redrawn at the fault.
      FaultInjector walk(transient_at(p), 50000 + run);
      for (int f = 0; f < 4; ++f) {
        walk.advance_clean(walk.clean_executions_ahead());
        walk.filter(1.0f);
        gaps.push_back(walk.clean_executions_ahead());
      }
    }
    expect_binomial(counts, static_cast<double>(n), p);
    EXPECT_LT(geometric_chi_square(gaps, p), kChiSquare15At999);
  }
}

TEST(FaultInjectorCountdown, MatchesExplicitPerOpBernoulliLoop) {
  // At p = 1e-3 the per-op Bernoulli process the countdown replaces is
  // cheap to run directly: both must fit the same Binomial counts and
  // Geometric gaps, and agree with each other.
  constexpr double p = 1e-3;
  constexpr std::uint64_t n = 20000;
  constexpr std::size_t kRuns = 2000;
  std::vector<std::uint64_t> countdown_counts;
  std::vector<std::uint64_t> bernoulli_counts;
  std::vector<std::uint64_t> countdown_gaps;
  std::vector<std::uint64_t> bernoulli_gaps;
  // Counts over a fixed window of n executions; gaps from separate
  // streams run until a fixed number of faults, so no gap is censored by
  // the window's end.
  constexpr int kGapsPerRun = 8;
  for (std::size_t run = 0; run < kRuns; ++run) {
    FaultInjector inj(transient_at(p), 70000 + run);
    for (std::uint64_t i = 0; i < n; ++i) inj.filter(1.0f);
    countdown_counts.push_back(inj.stats().faults);

    Rng rng(70000 + run, 0xFA17);
    std::uint64_t faults = 0;
    for (std::uint64_t i = 0; i < n; ++i) faults += rng.bernoulli(p) ? 1 : 0;
    bernoulli_counts.push_back(faults);

    FaultInjector walk(transient_at(p), 80000 + run);
    Rng per_op(80000 + run, 0xFA17);
    for (int g = 0; g < kGapsPerRun; ++g) {
      std::uint64_t gap = 0;
      while (walk.filter(1.0f) == 1.0f) ++gap;
      countdown_gaps.push_back(gap);
      gap = 0;
      while (!per_op.bernoulli(p)) ++gap;
      bernoulli_gaps.push_back(gap);
    }
  }
  expect_binomial(countdown_counts, static_cast<double>(n), p);
  expect_binomial(bernoulli_counts, static_cast<double>(n), p);
  EXPECT_LT(geometric_chi_square(countdown_gaps, p), kChiSquare15At999);
  EXPECT_LT(geometric_chi_square(bernoulli_gaps, p), kChiSquare15At999);
  const Moments a = moments_of(countdown_counts);
  const Moments b = moments_of(bernoulli_counts);
  const double var = static_cast<double>(n) * p * (1.0 - p);
  EXPECT_NEAR(a.mean, b.mean, 5.0 * std::sqrt(2.0 * var / kRuns));
}

// ----------------------------------------------------------- memory SEUs

TEST(MemoryFaults, BitErrorRateZeroTouchesNothing) {
  Tensor t(Shape{64}, 1.0f);
  Rng rng(1);
  const auto report = inject_bit_errors(t, 0.0, rng);
  EXPECT_EQ(report.bits_flipped, 0u);
  for (std::size_t i = 0; i < t.count(); ++i) EXPECT_EQ(t[i], 1.0f);
}

TEST(MemoryFaults, BitErrorRateApproximatesExpectation) {
  Tensor t(Shape{4, 16, 16, 4});  // 4096 words = 131072 bits
  Rng rng(2);
  const auto report = inject_bit_errors(t, 0.01, rng);
  EXPECT_EQ(report.words_visited, t.count());
  EXPECT_NEAR(static_cast<double>(report.bits_flipped), 1310.72, 150.0);
}

TEST(MemoryFaults, ExactFlipsCount) {
  Tensor t(Shape{32}, 2.0f);
  Rng rng(3);
  const auto report = inject_exact_flips(t, 10, rng);
  EXPECT_EQ(report.bits_flipped, 10u);
  int changed = 0;
  for (std::size_t i = 0; i < t.count(); ++i) {
    if (t[i] != 2.0f) ++changed;
  }
  EXPECT_GT(changed, 0);
  EXPECT_LE(changed, 10);
}

TEST(MemoryFaults, ExactFlipsOnEmptyTensorIsNoop) {
  Tensor t;
  Rng rng(4);
  const auto report = inject_exact_flips(t, 5, rng);
  EXPECT_EQ(report.bits_flipped, 0u);
}

// Counts bits differing between two equal-shape tensors.
std::uint64_t hamming_distance(const Tensor& a, const Tensor& b) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < a.count(); ++i) {
    bits += static_cast<std::uint64_t>(
        __builtin_popcount(float_bits(a[i]) ^ float_bits(b[i])));
  }
  return bits;
}

TEST(MemoryFaults, BitErrorsDeterministicForSeed) {
  // Geometric skip sampling must stay a pure function of the Rng state:
  // same seed, same flip sites, same draw count.
  Tensor a(Shape{512}, 1.5f);
  Tensor b(Shape{512}, 1.5f);
  Rng ra(42);
  Rng rb(42);
  const auto rep_a = inject_bit_errors(a, 0.003, ra);
  const auto rep_b = inject_bit_errors(b, 0.003, rb);
  EXPECT_EQ(rep_a.bits_flipped, rep_b.bits_flipped);
  EXPECT_EQ(rep_a.rng_draws, rep_b.rng_draws);
  EXPECT_EQ(a, b);
  EXPECT_GT(rep_a.bits_flipped, 0u);
}

TEST(MemoryFaults, BitErrorFlipSitesAreSpatiallyUniform) {
  // The skip-sampled sites must be i.i.d. Bernoulli per bit, so upsets
  // spread evenly: compare the flip mass in the two tensor halves over
  // many independent passes.
  constexpr std::size_t kWords = 2048;
  std::uint64_t low_half = 0;
  std::uint64_t high_half = 0;
  for (int pass = 0; pass < 50; ++pass) {
    Tensor t(Shape{kWords}, 0.0f);
    const Tensor zero = t;
    Rng rng(100 + pass);
    inject_bit_errors(t, 0.005, rng);
    for (std::size_t i = 0; i < kWords; ++i) {
      const auto bits = static_cast<std::uint64_t>(
          __builtin_popcount(float_bits(t[i]) ^ float_bits(zero[i])));
      (i < kWords / 2 ? low_half : high_half) += bits;
    }
  }
  const auto total = static_cast<double>(low_half + high_half);
  EXPECT_GT(total, 10000.0);  // ~16384 expected
  EXPECT_NEAR(static_cast<double>(low_half) / total, 0.5, 0.02);
}

TEST(MemoryFaults, BitErrorDrawsScaleWithFlipsNotBits) {
  // The regression this locks: the old sampler drew one variate per bit
  // (32 per word). Geometric skips draw one per flip — at least 10x
  // fewer at realistic bit-error rates (here ~460x).
  Tensor t(Shape{4, 16, 16, 4});  // 131072 bits
  Rng rng(7);
  const auto report = inject_bit_errors(t, 0.001, rng);
  const std::uint64_t old_draws = 32ull * t.count();
  EXPECT_GT(report.bits_flipped, 50u);
  EXPECT_LE(report.rng_draws, report.bits_flipped + 1)
      << "one uniform per flip (plus the terminating overshoot)";
  EXPECT_LE(report.rng_draws * 10, old_draws)
      << "must consume >=10x fewer variates than per-bit Bernoulli";
}

TEST(MemoryFaults, BitErrorRateOneFlipsEveryBitWithoutDrawing) {
  Tensor t(Shape{16}, 1.0f);
  const Tensor original = t;
  Rng rng(8);
  const auto report = inject_bit_errors(t, 1.0, rng);
  EXPECT_EQ(report.bits_flipped, 32u * 16u);
  EXPECT_EQ(report.rng_draws, 0u);
  EXPECT_EQ(hamming_distance(t, original), 32u * 16u);
}

TEST(MemoryFaults, ExactFlipsAreWithoutReplacement) {
  // The regression this locks: sampling WITH replacement let duplicate
  // sites un-flip each other, so "exactly N flips" silently delivered
  // fewer corrupted bits. Floyd's algorithm guarantees N distinct sites:
  // the Hamming distance to the original equals the request exactly.
  for (const std::uint64_t count : {1ull, 17ull, 50ull, 100ull, 127ull}) {
    Tensor t(Shape{4}, 3.0f);  // 128-bit site space — collisions likely
    const Tensor original = t;
    Rng rng(1000 + count);
    const auto report = inject_exact_flips(t, count, rng);
    EXPECT_EQ(report.bits_flipped, count);
    EXPECT_EQ(hamming_distance(t, original), count) << "count " << count;
  }
}

TEST(MemoryFaults, ExactFlipsAtCapacityFlipEveryBit) {
  Tensor t(Shape{2}, -1.0f);
  const Tensor original = t;
  Rng rng(9);
  const auto report = inject_exact_flips(t, 64, rng);
  EXPECT_EQ(report.bits_flipped, 64u);
  EXPECT_EQ(hamming_distance(t, original), 64u);

  Tensor u(Shape{2}, -1.0f);
  const auto over = inject_exact_flips(u, 10000, rng);
  EXPECT_EQ(over.bits_flipped, 64u);
  EXPECT_EQ(hamming_distance(u, original), 64u);
}

TEST(MemoryFaults, ExactFlipsDeterministicForSeed) {
  Tensor a(Shape{64}, 0.5f);
  Tensor b(Shape{64}, 0.5f);
  Rng ra(77);
  Rng rb(77);
  inject_exact_flips(a, 33, ra);
  inject_exact_flips(b, 33, rb);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------- memory campaign types

TEST(MemoryCampaign, OutcomeNames) {
  using hybridcnn::faultsim::memory_outcome_name;
  using hybridcnn::faultsim::MemoryOutcome;
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kIntact), "intact");
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kCorrected), "corrected");
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kUncorrectable),
            "uncorrectable");
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kQualifierCaught),
            "qualifier_caught");
  EXPECT_EQ(memory_outcome_name(MemoryOutcome::kSilentCorruption),
            "silent_corruption");
}

TEST(MemoryCampaign, SummaryRates) {
  using hybridcnn::faultsim::MemoryCampaignSummary;
  using hybridcnn::faultsim::MemoryOutcome;
  MemoryCampaignSummary s;
  s.add(MemoryOutcome::kIntact);
  s.add(MemoryOutcome::kIntact);
  s.add(MemoryOutcome::kCorrected);
  s.add(MemoryOutcome::kUncorrectable);
  s.add(MemoryOutcome::kQualifierCaught);
  s.add(MemoryOutcome::kSilentCorruption);
  EXPECT_EQ(s.runs, 6u);
  EXPECT_DOUBLE_EQ(s.availability(), 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(s.safety(), 5.0 / 6.0);
  EXPECT_DOUBLE_EQ(s.sdc_rate(), 1.0 / 6.0);
  EXPECT_EQ(s, s);
}

// ------------------------------------------------------------- campaign

TEST(Campaign, ClassificationTable) {
  EXPECT_EQ(classify(false, false, true), Outcome::kCorrect);
  EXPECT_EQ(classify(true, false, true), Outcome::kCorrected);
  EXPECT_EQ(classify(true, true, true), Outcome::kDetectedAbort);
  EXPECT_EQ(classify(true, true, false), Outcome::kDetectedAbort);
  EXPECT_EQ(classify(true, false, false), Outcome::kSilentCorruption);
  EXPECT_EQ(classify(false, false, false), Outcome::kSilentCorruption);
}

TEST(Campaign, OutcomeNames) {
  EXPECT_EQ(outcome_name(Outcome::kCorrect), "correct");
  EXPECT_EQ(outcome_name(Outcome::kCorrected), "corrected");
  EXPECT_EQ(outcome_name(Outcome::kDetectedAbort), "detected_abort");
  EXPECT_EQ(outcome_name(Outcome::kSilentCorruption), "silent_corruption");
}

TEST(Campaign, SummaryRates) {
  CampaignSummary s;
  s.add(Outcome::kCorrect);
  s.add(Outcome::kCorrect);
  s.add(Outcome::kCorrected);
  s.add(Outcome::kDetectedAbort);
  s.add(Outcome::kSilentCorruption);
  EXPECT_EQ(s.runs, 5u);
  EXPECT_DOUBLE_EQ(s.availability(), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.safety(), 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.sdc_rate(), 1.0 / 5.0);
}

TEST(Campaign, EmptySummaryRatesAreZero) {
  const CampaignSummary s;
  EXPECT_DOUBLE_EQ(s.availability(), 0.0);
  EXPECT_DOUBLE_EQ(s.safety(), 0.0);
  EXPECT_DOUBLE_EQ(s.sdc_rate(), 0.0);
}

// Parameterised: operand-targeted faults corrupt results too.
class OperandTargets : public ::testing::TestWithParam<FaultTarget> {};

TEST_P(OperandTargets, TargetIsConfigured) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 1.0;
  cfg.target = GetParam();
  FaultInjector inj(cfg, 9);
  EXPECT_EQ(inj.config().target, GetParam());
  EXPECT_NE(float_bits(inj.filter(5.0f)), float_bits(5.0f));
}

INSTANTIATE_TEST_SUITE_P(Targets, OperandTargets,
                         ::testing::Values(FaultTarget::kResult,
                                           FaultTarget::kOperandA,
                                           FaultTarget::kOperandB));

}  // namespace
