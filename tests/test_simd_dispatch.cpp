// SIMD fast-path bit-identity contract: the pixel-lane vectorized
// fault-free kernels (reliable/static_dispatch.hpp over runtime/isa.hpp)
// must produce the same output bits, reports and executor/injector state
// as the scalar fast path (kill-switch closed) and the generic
// virtual-dispatch oracle — across schemes, interior/border/lane-remainder
// geometries, stride variants and thread counts. Armed injectors must
// bypass the vector path entirely (it exists only where no fault can be
// injected), which the faulty cases here pin down.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "faultsim/bitflip.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "reliable/reliable_linear.hpp"
#include "reliable/static_dispatch.hpp"
#include "runtime/compute_context.hpp"
#include "runtime/isa.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::CampaignSummary;
using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::reliable::ConvSpec;
using hybridcnn::reliable::Executor;
using hybridcnn::reliable::make_executor;
using hybridcnn::reliable::ReliableConv2d;
using hybridcnn::reliable::ReliableLinear;
using hybridcnn::reliable::ReliableResult;
using hybridcnn::reliable::detail::ConvKernel;
using hybridcnn::reliable::detail::parse_reliable_kernel;
using hybridcnn::reliable::detail::reliable_kernel_choice;
using hybridcnn::reliable::detail::reliable_simd_enabled;
using hybridcnn::reliable::detail::set_reliable_kernel_choice;
using hybridcnn::reliable::detail::set_reliable_simd_enabled;
using hybridcnn::runtime::ComputeContext;
using hybridcnn::runtime::isa::kFloatLanes;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

/// Restores the kill-switch state on scope exit so tests cannot leak a
/// disabled vector path into each other.
class SimdGuard {
 public:
  SimdGuard() : saved_(reliable_simd_enabled()) {}
  ~SimdGuard() { set_reliable_simd_enabled(saved_); }

 private:
  bool saved_;
};

/// Same for the kernel-strategy override: tests that pin a kernel must
/// not leak the forced choice (or clobber an HYBRIDCNN_RELIABLE_KERNEL
/// override the whole suite is running under) into other tests.
class KernelGuard {
 public:
  KernelGuard() : saved_(reliable_kernel_choice()) {}
  ~KernelGuard() { set_reliable_kernel_choice(saved_); }

 private:
  ConvKernel saved_;
};

struct Geometry {
  std::size_t out_c, in_c, k, stride, pad, h, w;
};

// Wide outputs on purpose: every geometry except the last has an interior
// ox span of at least 16 (one full AVX-512 lane block, several at
// narrower ISAs) plus a lane remainder; pad variants put border pixels on
// both sides of the vector blocks, and stride 2 exercises the gathered
// (non-contiguous) lane loads. The last geometry's interior is narrower
// than a 16-wide block, covering the scalar fallback on wide ISAs.
const std::vector<Geometry> kGeometries = {
    {4, 3, 3, 1, 1, 24, 40},  // stride 1, borders + 38-wide interior
    {3, 2, 5, 2, 2, 30, 50},  // stride 2: gathered lanes, 22-wide interior
    {2, 1, 3, 1, 0, 20, 36},  // valid conv: interior-only rows
    {2, 2, 1, 1, 0, 6, 21},   // 1x1 kernel, odd width lane remainder
    {1, 1, 5, 1, 4, 12, 28},  // heavy pad: 4-wide borders both sides
    {2, 2, 3, 1, 1, 5, 9},    // interior (7) below a 16-lane block
};

ReliableConv2d make_conv(const Geometry& g, std::uint64_t seed = 11) {
  Rng rng(seed);
  Tensor weights(Shape{g.out_c, g.in_c, g.k, g.k});
  weights.fill_normal(rng, 0.0f, 0.5f);
  Tensor bias(Shape{g.out_c});
  bias.fill_normal(rng, 0.0f, 0.1f);
  return {std::move(weights), std::move(bias), ConvSpec{g.stride, g.pad},
          {}};
}

Tensor make_input(const Geometry& g, std::uint64_t seed = 23) {
  Rng rng(seed);
  Tensor input(Shape{g.in_c, g.h, g.w});
  input.fill_normal(rng, 0.0f, 1.0f);
  return input;
}

void expect_bits_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.count(); ++i) {
    ASSERT_EQ(hybridcnn::faultsim::float_bits(a[i]),
              hybridcnn::faultsim::float_bits(b[i]))
        << "first differing element at flat index " << i;
  }
  ASSERT_TRUE(hybridcnn::tensor::bit_identical(a, b));
}

// ----------------------------------------------------------- geometry

TEST(SimdDispatchGeometry, InteriorSpansCoverBlocksAndRemainders) {
  // The sweep below only proves something if the vector kernel actually
  // runs: the wide geometries must hold at least one full lane block.
  using hybridcnn::reliable::detail::ConvPlan;
  for (std::size_t gi = 0; gi + 1 < kGeometries.size(); ++gi) {
    const Geometry& g = kGeometries[gi];
    const ReliableConv2d conv = make_conv(g);
    const Shape in{g.in_c, g.h, g.w};
    const ConvPlan plan(conv.output_shape(in), in,
                        Shape{g.out_c, g.in_c, g.k, g.k}, g.stride, g.pad);
    EXPECT_GE(plan.interior_x_end - plan.interior_x_begin, kFloatLanes)
        << "geometry " << gi << " has no full lane block";
  }
  // And at least one wide geometry must leave a lane remainder, so the
  // scalar tail after the vector blocks is exercised too.
  bool any_remainder = false;
  for (std::size_t gi = 0; gi + 1 < kGeometries.size(); ++gi) {
    const Geometry& g = kGeometries[gi];
    const ReliableConv2d conv = make_conv(g);
    const Shape in{g.in_c, g.h, g.w};
    const ConvPlan plan(conv.output_shape(in), in,
                        Shape{g.out_c, g.in_c, g.k, g.k}, g.stride, g.pad);
    any_remainder |=
        (plan.interior_x_end - plan.interior_x_begin) % kFloatLanes != 0;
  }
  EXPECT_TRUE(any_remainder);
}

// ------------------------------------------------- conv fault-free path

TEST(SimdDispatchConv, VectorScalarAndGenericAgreeBitForBit) {
  const SimdGuard guard;
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (std::size_t gi = 0; gi < kGeometries.size(); ++gi) {
      SCOPED_TRACE(std::string(scheme) + " geometry " + std::to_string(gi));
      const Geometry& g = kGeometries[gi];
      const ReliableConv2d conv = make_conv(g);
      const Tensor input = make_input(g);

      set_reliable_simd_enabled(true);
      const auto simd_exec = make_executor(scheme, nullptr);
      const ReliableResult simd = conv.forward(input, *simd_exec);

      set_reliable_simd_enabled(false);
      const auto scalar_exec = make_executor(scheme, nullptr);
      const ReliableResult scalar = conv.forward(input, *scalar_exec);

      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);

      ASSERT_TRUE(simd.report.ok);
      expect_bits_equal(simd.output, scalar.output);
      expect_bits_equal(simd.output, oracle.output);
      EXPECT_TRUE(simd.report == scalar.report);
      EXPECT_TRUE(simd.report == oracle.report);
      EXPECT_EQ(simd_exec->stats().logical_ops,
                oracle_exec->stats().logical_ops);
      EXPECT_EQ(simd_exec->stats().executions,
                oracle_exec->stats().executions);
    }
  }
}

TEST(SimdDispatchConv, CleanInjectorCursorIsReplayedUnderSimd) {
  // A kNone injector keeps the fast path eligible but makes the PE
  // cursor and execution counters observable: the vector path must
  // credit them exactly like the scalar and generic paths.
  const SimdGuard guard;
  set_reliable_simd_enabled(true);
  FaultConfig cfg;
  cfg.kind = FaultKind::kNone;
  cfg.num_pes = 7;
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    SCOPED_TRACE(scheme);
    const Geometry& g = kGeometries[0];
    const ReliableConv2d conv = make_conv(g);
    const Tensor input = make_input(g);
    const auto simd_exec =
        make_executor(scheme, std::make_shared<FaultInjector>(cfg, 3));
    const auto oracle_exec =
        make_executor(scheme, std::make_shared<FaultInjector>(cfg, 3));
    const ReliableResult simd = conv.forward(input, *simd_exec);
    const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
    ASSERT_GT(simd_exec->injector()->stats().executions, 0u);
    expect_bits_equal(simd.output, oracle.output);
    EXPECT_TRUE(simd.report == oracle.report);
    EXPECT_EQ(simd_exec->injector()->stats().executions,
              oracle_exec->injector()->stats().executions);
    EXPECT_EQ(simd_exec->injector()->next_pe(),
              oracle_exec->injector()->next_pe());
  }
}

TEST(SimdDispatchConv, ArmedInjectorBypassesVectorPath) {
  // With faults possible the kernel must stay on the qualified scalar
  // engine regardless of the kill-switch: same bits, reports and
  // injector draws as the generic oracle in both switch positions.
  const SimdGuard guard;
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 2e-3;
  cfg.bit = -1;
  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  for (const bool simd_on : {true, false}) {
    SCOPED_TRACE(simd_on ? "simd on" : "simd off");
    set_reliable_simd_enabled(simd_on);
    for (const char* scheme : {"dmr", "tmr"}) {
      const auto fast_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 41));
      const auto oracle_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 41));
      const ReliableResult fast = conv.forward(input, *fast_exec);
      const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
      expect_bits_equal(fast.output, oracle.output);
      EXPECT_TRUE(fast.report == oracle.report);
      EXPECT_EQ(fast_exec->injector()->stats().faults,
                oracle_exec->injector()->stats().faults);
    }
  }
}

TEST(SimdDispatchConv, KillSwitchTogglesAndRestores) {
  const SimdGuard guard;
  set_reliable_simd_enabled(true);
  EXPECT_TRUE(reliable_simd_enabled());
  set_reliable_simd_enabled(false);
  EXPECT_FALSE(reliable_simd_enabled());
  set_reliable_simd_enabled(true);
  EXPECT_TRUE(reliable_simd_enabled());
}

// ---------------------------------------------------------- linear path

TEST(SimdDispatchLinear, VectorScalarAndGenericAgreeAcrossWidths) {
  const SimdGuard guard;
  // Widths straddling the lane count: below one block, exactly one
  // block, blocks + remainder, and a larger non-multiple.
  const std::size_t widths[] = {3, kFloatLanes, 2 * kFloatLanes + 3, 37};
  for (const std::size_t out_n : widths) {
    for (const char* scheme : {"simplex", "dmr", "tmr"}) {
      SCOPED_TRACE(std::string(scheme) + " out_n " + std::to_string(out_n));
      Rng rng(5 + out_n);
      Tensor weights(Shape{out_n, 19});
      weights.fill_normal(rng, 0.0f, 0.4f);
      Tensor bias(Shape{out_n});
      bias.fill_normal(rng, 0.0f, 0.1f);
      const ReliableLinear linear(weights, bias);
      Tensor input(Shape{19});
      input.fill_normal(rng, 0.0f, 1.0f);

      set_reliable_simd_enabled(true);
      const auto simd_exec = make_executor(scheme, nullptr);
      const ReliableResult simd = linear.forward(input, *simd_exec);

      set_reliable_simd_enabled(false);
      const auto scalar_exec = make_executor(scheme, nullptr);
      const ReliableResult scalar = linear.forward(input, *scalar_exec);

      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle =
          linear.forward_generic(input, *oracle_exec);

      ASSERT_TRUE(simd.report.ok);
      expect_bits_equal(simd.output, scalar.output);
      expect_bits_equal(simd.output, oracle.output);
      EXPECT_TRUE(simd.report == scalar.report);
      EXPECT_TRUE(simd.report == oracle.report);
      EXPECT_EQ(simd_exec->stats().executions,
                oracle_exec->stats().executions);
    }
  }
}

// -------------------------------------------------- thread-count sweep

class SimdDispatchThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdDispatchThreads, FaultFreeCampaignMatchesGeneric) {
  // Fault-free campaign fanned across the pool: every run takes the
  // vector fast path concurrently; the summary and per-run outputs must
  // match the generic oracle at every thread count.
  const SimdGuard guard;
  set_reliable_simd_enabled(true);
  ComputeContext::set_global_threads(GetParam());

  const Geometry& g = kGeometries[1];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  const Tensor golden = conv.reference_forward(input);
  constexpr std::size_t kRuns = 12;

  const auto make_exec = [&](std::size_t) {
    return make_executor("simplex", nullptr);
  };
  const auto classify = [&](std::size_t, const ReliableResult& result,
                            Executor&) {
    return hybridcnn::faultsim::classify(false, !result.report.ok,
                                         result.output == golden);
  };
  conv.prepare_fast_path();
  const CampaignSummary fast =
      hybridcnn::faultsim::run_campaign(kRuns, [&](std::size_t run) {
        const auto exec = make_exec(run);
        const ReliableResult result = conv.forward(input, *exec);
        return classify(run, result, *exec);
      });
  const CampaignSummary oracle =
      hybridcnn::faultsim::run_campaign(kRuns, [&](std::size_t run) {
        const auto exec = make_exec(run);
        const ReliableResult result = conv.forward_generic(input, *exec);
        return classify(run, result, *exec);
      });
  ComputeContext::set_global_threads(1);

  EXPECT_EQ(fast.runs, oracle.runs);
  EXPECT_EQ(fast.correct, oracle.correct);
  EXPECT_EQ(fast.correct, kRuns);  // fault-free: all bit-exact
  EXPECT_EQ(fast.detected_abort, oracle.detected_abort);
  EXPECT_EQ(fast.silent_corruption, oracle.silent_corruption);
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdDispatchThreads,
                         ::testing::Values<std::size_t>(1, 2, 8));

// ------------------------------------------- kernel-strategy four-way

/// Channel-lane vs pixel-lane vs scalar vs generic, across every scheme
/// and geometry, at each pool width. The channel kernel is forced even
/// where the auto heuristic would not pick it (out_c below a lane block)
/// so its masked tail-store path is exercised hard; the pixel kernel is
/// forced even where it is ineligible (narrow interior), which must fall
/// back to the scalar loop — also bit-identical.
class SimdKernelThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdKernelThreads, ChannelPixelScalarGenericAgreeBitForBit) {
  const SimdGuard guard;
  const KernelGuard kernel_guard;
  ComputeContext::set_global_threads(GetParam());
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (std::size_t gi = 0; gi < kGeometries.size(); ++gi) {
      SCOPED_TRACE(std::string(scheme) + " geometry " + std::to_string(gi) +
                   " threads " + std::to_string(GetParam()));
      const Geometry& g = kGeometries[gi];
      const ReliableConv2d conv = make_conv(g);
      const Tensor input = make_input(g);

      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);

      set_reliable_simd_enabled(false);
      set_reliable_kernel_choice(ConvKernel::kAuto);
      const auto scalar_exec = make_executor(scheme, nullptr);
      const ReliableResult scalar = conv.forward(input, *scalar_exec);

      set_reliable_simd_enabled(true);
      for (const ConvKernel kernel :
           {ConvKernel::kPixel, ConvKernel::kChannel, ConvKernel::kAuto}) {
        set_reliable_kernel_choice(kernel);
        const auto exec = make_executor(scheme, nullptr);
        const ReliableResult fast = conv.forward(input, *exec);
        ASSERT_TRUE(fast.report.ok);
        expect_bits_equal(fast.output, oracle.output);
        EXPECT_TRUE(fast.report == oracle.report);
        EXPECT_EQ(exec->stats().logical_ops, oracle_exec->stats().logical_ops);
        EXPECT_EQ(exec->stats().executions, oracle_exec->stats().executions);
      }
      expect_bits_equal(scalar.output, oracle.output);
      EXPECT_TRUE(scalar.report == oracle.report);
    }
  }
  ComputeContext::set_global_threads(1);
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdKernelThreads,
                         ::testing::Values<std::size_t>(1, 2, 8));

// --------------------------------------------- weight-repack staleness

TEST(WeightRepack, ConvPackIsInvalidatedBySetWeights) {
  const SimdGuard guard;
  const KernelGuard kernel_guard;
  set_reliable_simd_enabled(true);
  set_reliable_kernel_choice(ConvKernel::kChannel);

  const Geometry& g = kGeometries[0];
  ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);

  conv.prepare_fast_path();
  const auto pack_before = conv.channel_pack();
  const std::uint64_t gen_before = conv.weight_generation();
  if (pack_before != nullptr) {  // nullptr on non-SIMD targets
    EXPECT_EQ(pack_before->generation, gen_before);
  }

  // Mutate the weights: the cached pack must be rebuilt, and the forward
  // must match a conv constructed fresh with the new weights bit for bit.
  Rng rng(97);
  Tensor new_weights(Shape{g.out_c, g.in_c, g.k, g.k});
  new_weights.fill_normal(rng, 0.0f, 0.5f);
  conv.set_weights(new_weights);
  EXPECT_EQ(conv.weight_generation(), gen_before + 1);

  const auto pack_after = conv.channel_pack();
  if (pack_after != nullptr) {
    EXPECT_NE(pack_before.get(), pack_after.get());
    EXPECT_EQ(pack_after->generation, gen_before + 1);
  }

  Tensor bias(Shape{g.out_c});
  Rng bias_rng(11);  // make_conv's seed: regenerate the same bias
  Tensor w_dummy(Shape{g.out_c, g.in_c, g.k, g.k});
  w_dummy.fill_normal(bias_rng, 0.0f, 0.5f);
  bias.fill_normal(bias_rng, 0.0f, 0.1f);
  const ReliableConv2d fresh(new_weights, bias, ConvSpec{g.stride, g.pad},
                             {});

  const auto stale_exec = make_executor("simplex", nullptr);
  const auto fresh_exec = make_executor("simplex", nullptr);
  const ReliableResult updated = conv.forward(input, *stale_exec);
  const ReliableResult expected = fresh.forward(input, *fresh_exec);
  expect_bits_equal(updated.output, expected.output);
  EXPECT_TRUE(updated.report == expected.report);

  // And a stale-shape update must be rejected without touching state.
  Tensor bad(Shape{g.out_c, g.in_c, g.k, g.k + 1});
  EXPECT_THROW(conv.set_weights(bad), std::invalid_argument);
  EXPECT_EQ(conv.weight_generation(), gen_before + 1);
}

TEST(WeightRepack, LinearPackIsInvalidatedBySetWeights) {
  const SimdGuard guard;
  set_reliable_simd_enabled(true);

  const std::size_t out_n = 2 * kFloatLanes + 3;
  const std::size_t in_n = 19;
  Rng rng(5);
  Tensor weights(Shape{out_n, in_n});
  weights.fill_normal(rng, 0.0f, 0.4f);
  Tensor bias(Shape{out_n});
  bias.fill_normal(rng, 0.0f, 0.1f);
  ReliableLinear linear(weights, bias);
  Tensor input(Shape{in_n});
  input.fill_normal(rng, 0.0f, 1.0f);

  linear.prepare_fast_path();
  const auto pack_before = linear.neuron_pack();
  const std::uint64_t gen_before = linear.weight_generation();

  Tensor new_weights(Shape{out_n, in_n});
  new_weights.fill_normal(rng, 0.0f, 0.4f);
  linear.set_weights(new_weights);
  EXPECT_EQ(linear.weight_generation(), gen_before + 1);
  const auto pack_after = linear.neuron_pack();
  if (pack_after != nullptr) {
    EXPECT_NE(pack_before.get(), pack_after.get());
    EXPECT_EQ(pack_after->generation, gen_before + 1);
  }

  const ReliableLinear fresh(new_weights, bias);
  const auto updated_exec = make_executor("simplex", nullptr);
  const auto fresh_exec = make_executor("simplex", nullptr);
  const ReliableResult updated = linear.forward(input, *updated_exec);
  const ReliableResult expected = fresh.forward(input, *fresh_exec);
  expect_bits_equal(updated.output, expected.output);
  EXPECT_TRUE(updated.report == expected.report);

  Tensor bad(Shape{out_n, in_n + 1});
  EXPECT_THROW(linear.set_weights(bad), std::invalid_argument);
}

// ------------------------------------------------- override handling

TEST(KernelChoice, ParseAcceptsExactSpellingsOnly) {
  EXPECT_EQ(parse_reliable_kernel(nullptr), std::nullopt);
  EXPECT_EQ(parse_reliable_kernel("pixel"), ConvKernel::kPixel);
  EXPECT_EQ(parse_reliable_kernel("channel"), ConvKernel::kChannel);
  EXPECT_EQ(parse_reliable_kernel("auto"), ConvKernel::kAuto);
  // Typos and near-misses must not silently pin a strategy.
  EXPECT_EQ(parse_reliable_kernel(""), std::nullopt);
  EXPECT_EQ(parse_reliable_kernel("Pixel"), std::nullopt);
  EXPECT_EQ(parse_reliable_kernel("CHANNEL"), std::nullopt);
  EXPECT_EQ(parse_reliable_kernel("pixel "), std::nullopt);
  EXPECT_EQ(parse_reliable_kernel("channels"), std::nullopt);
  EXPECT_EQ(parse_reliable_kernel("0"), std::nullopt);
}

TEST(KernelChoice, SetAndRestoreRoundTrips) {
  const KernelGuard kernel_guard;
  for (const ConvKernel kernel :
       {ConvKernel::kPixel, ConvKernel::kChannel, ConvKernel::kAuto}) {
    set_reliable_kernel_choice(kernel);
    EXPECT_EQ(reliable_kernel_choice(), kernel);
  }
}

}  // namespace
