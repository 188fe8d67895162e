// SIMD fast-path bit-identity contract: the channel-lane vectorized
// fault-free kernels (reliable/static_dispatch.hpp over runtime/isa.hpp)
// must produce the same output bits as the scalar golden
// (reference_forward) and the same output bits, reports and
// executor/injector state as the generic virtual-dispatch oracle —
// across schemes, border/partial-block/multi-block geometries, stride
// variants, a seeded random-geometry sweep and thread counts. Armed
// injectors run the same vector compute and qualify only the outputs that
// carry a fault; the armed sweep pins them to the oracle across every
// fault kind, target and scheme, from sparse rates to aborting ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "faultsim/bitflip.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "reliable/reliable_linear.hpp"
#include "runtime/compute_context.hpp"
#include "runtime/isa.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::CampaignSummary;
using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::faultsim::FaultTarget;
using hybridcnn::faultsim::InjectorStats;
using hybridcnn::reliable::ConvSpec;
using hybridcnn::reliable::ExecutionReport;
using hybridcnn::reliable::Executor;
using hybridcnn::reliable::ExecutorStats;
using hybridcnn::reliable::make_executor;
using hybridcnn::reliable::ReliabilityPolicy;
using hybridcnn::reliable::ReliableConv2d;
using hybridcnn::reliable::ReliableLinear;
using hybridcnn::reliable::ReliableResult;
using hybridcnn::runtime::ComputeContext;
using hybridcnn::runtime::isa::kFloatLanes;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

struct Geometry {
  std::size_t out_c, in_c, k, stride, pad, h, w;
};

// Channel counts straddle the lane width: below one block (partial tail
// only), and — in the last geometry — the 4-block group, the 2-block
// remainder group and a partial tail block in a single conv. Pad
// variants put border pixels on both sides, stride 2 shifts the tap
// ranges per output column, and the 1x1 / heavy-pad / narrow rows cover
// degenerate tap intervals.
const std::vector<Geometry> kGeometries = {
    {4, 3, 3, 1, 1, 24, 40},  // stride 1, borders on both sides
    {3, 2, 5, 2, 2, 30, 50},  // stride 2, per-column tap ranges
    {2, 1, 3, 1, 0, 20, 36},  // valid conv: interior-only rows
    {2, 2, 1, 1, 0, 6, 21},   // 1x1 kernel, odd width
    {1, 1, 5, 1, 4, 12, 28},  // heavy pad: 4-wide borders both sides
    {2, 2, 3, 1, 1, 5, 9},    // narrow output
    {5 * kFloatLanes + 3, 3, 3, 2, 1, 17, 19},  // 4 + 2 blocks + tail
};

ReliableConv2d make_conv(const Geometry& g, std::uint64_t seed = 11,
                         ReliabilityPolicy policy = {}) {
  Rng rng(seed);
  Tensor weights(Shape{g.out_c, g.in_c, g.k, g.k});
  weights.fill_normal(rng, 0.0f, 0.5f);
  Tensor bias(Shape{g.out_c});
  bias.fill_normal(rng, 0.0f, 0.1f);
  return {std::move(weights), std::move(bias), ConvSpec{g.stride, g.pad},
          policy};
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

// ------------------------------------------------- conv fault-free path

TEST(SimdDispatchConv, VectorScalarAndGenericAgreeBitForBit) {
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (std::size_t gi = 0; gi < kGeometries.size(); ++gi) {
      SCOPED_TRACE(std::string(scheme) + " geometry " + std::to_string(gi));
      const Geometry& g = kGeometries[gi];
      const ReliableConv2d conv = make_conv(g);
      const Tensor input = make_input(g);

      const auto simd_exec = make_executor(scheme, nullptr);
      const ReliableResult simd = conv.forward(input, *simd_exec);

      const Tensor scalar = conv.reference_forward(input);

      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);

      ASSERT_TRUE(simd.report.ok);
      expect_bits_equal(simd.output, scalar);
      expect_bits_equal(simd.output, oracle.output);
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
  // credit them exactly like the generic path.
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

TEST(SimdDispatchConv, ArmedInjectorSkipsToFaultsBitIdentically) {
  // An armed injector runs the same body as a clean one: the vector raw
  // compute covers the whole layer, the clean stretches between upsets
  // are credited in bulk and only the outputs that carry a fault are
  // recomputed on the qualified scalar engine — with the same bits,
  // reports and injector draws as the generic oracle.
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 2e-3;
  cfg.bit = -1;
  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  for (const char* scheme : {"dmr", "tmr"}) {
    SCOPED_TRACE(scheme);
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

// ---------------------------------------------------------- linear path

TEST(SimdDispatchLinear, VectorScalarAndGenericAgreeAcrossWidths) {
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

      const auto simd_exec = make_executor(scheme, nullptr);
      const ReliableResult simd = linear.forward(input, *simd_exec);

      const Tensor scalar = linear.reference_forward(input);

      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle =
          linear.forward_generic(input, *oracle_exec);

      ASSERT_TRUE(simd.report.ok);
      expect_bits_equal(simd.output, scalar);
      expect_bits_equal(simd.output, oracle.output);
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

// ---------------------------------------------- vector-kernel threads

/// Vector vs scalar vs generic, across every scheme and geometry, at
/// each pool width: the (block group, row) fan-out and the scalar
/// golden's per-channel fan-out must not perturb a bit, including the
/// masked tail-store path of out_c below a lane block.
class SimdKernelThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdKernelThreads, VectorScalarGenericAgreeBitForBit) {
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

      const Tensor scalar = conv.reference_forward(input);

      const auto exec = make_executor(scheme, nullptr);
      const ReliableResult fast = conv.forward(input, *exec);
      ASSERT_TRUE(fast.report.ok);
      expect_bits_equal(fast.output, oracle.output);
      EXPECT_TRUE(fast.report == oracle.report);
      EXPECT_EQ(exec->stats().logical_ops, oracle_exec->stats().logical_ops);
      EXPECT_EQ(exec->stats().executions, oracle_exec->stats().executions);
      expect_bits_equal(scalar, oracle.output);
    }
  }
  ComputeContext::set_global_threads(1);
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdKernelThreads,
                         ::testing::Values<std::size_t>(1, 2, 8));

// ------------------------------------------ randomised geometry sweep

/// Draws conv geometries from a fixed seed over the whole shape space the
/// fast path must cover: every channel extent from one lane to three
/// blocks plus a partial tail, 1..7 kernels, strides up to 4 and pads up
/// to k + 1 (pad >= k gives bias-only border outputs), with input sizes
/// reaching down to kernel == padded input (a 1x1 output).
std::vector<Geometry> draw_sweep_geometries(std::size_t count) {
  Rng rng(20241017);
  const auto draw = [&](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  // Smallest extent whose padded size still fits the kernel, plus 0..6.
  const auto extent = [&](std::size_t k, std::size_t pad) {
    const std::size_t min = k > 2 * pad ? k - 2 * pad : 1;
    return min + (rng.bernoulli(0.25) ? 0 : draw(0, 6));
  };
  std::vector<Geometry> geometries;
  for (std::size_t i = 0; i < count; ++i) {
    Geometry g{};
    g.out_c = draw(1, 3 * kFloatLanes + 3);
    g.in_c = draw(1, 4);
    g.k = draw(1, 7);
    g.stride = draw(1, 4);
    g.pad = draw(0, g.k + 1);
    g.h = extent(g.k, g.pad);
    g.w = extent(g.k, g.pad);
    geometries.push_back(g);
  }
  return geometries;
}

std::string describe(const Geometry& g) {
  return "out_c " + std::to_string(g.out_c) + " in_c " +
         std::to_string(g.in_c) + " k " + std::to_string(g.k) + " stride " +
         std::to_string(g.stride) + " pad " + std::to_string(g.pad) + " in " +
         std::to_string(g.h) + "x" + std::to_string(g.w);
}

TEST(RandomGeometrySweep, ConvFastPathMatchesReferenceAndGeneric) {
  const char* const schemes[] = {"simplex", "dmr", "tmr"};
  const std::vector<Geometry> geometries = draw_sweep_geometries(240);
  std::vector<ReliableConv2d> convs;
  std::vector<Tensor> inputs;
  std::vector<ReliableResult> oracles;  // serial: thread-independent
  for (std::size_t i = 0; i < geometries.size(); ++i) {
    convs.push_back(make_conv(geometries[i], 100 + i));
    inputs.push_back(make_input(geometries[i], 500 + i));
    const auto exec = make_executor(schemes[i % 3], nullptr);
    oracles.push_back(convs[i].forward_generic(inputs[i], *exec));
  }
  bool saw_one_by_one = false;
  for (const std::size_t threads : {1, 8}) {
    ComputeContext::set_global_threads(threads);
    for (std::size_t i = 0; i < geometries.size(); ++i) {
      SCOPED_TRACE(std::string(schemes[i % 3]) + " case " +
                   std::to_string(i) + ": " + describe(geometries[i]) +
                   " threads " + std::to_string(threads));
      const auto exec = make_executor(schemes[i % 3], nullptr);
      const ReliableResult fast = convs[i].forward(inputs[i], *exec);
      const Tensor scalar = convs[i].reference_forward(inputs[i]);
      ASSERT_TRUE(fast.report.ok);
      expect_bits_equal(fast.output, scalar);
      expect_bits_equal(fast.output, oracles[i].output);
      EXPECT_TRUE(fast.report == oracles[i].report);
      saw_one_by_one = saw_one_by_one || fast.output.count() ==
                                             geometries[i].out_c;
    }
  }
  ComputeContext::set_global_threads(1);
  EXPECT_TRUE(saw_one_by_one) << "the sweep must reach a 1x1 output";
}

TEST(RandomGeometrySweep, LinearFastPathMatchesReferenceAndGeneric) {
  const char* const schemes[] = {"simplex", "dmr", "tmr"};
  Rng rng(77);
  for (const std::size_t threads : {1, 8}) {
    ComputeContext::set_global_threads(threads);
    for (std::size_t out_n = 1; out_n <= 3 * kFloatLanes + 3; ++out_n) {
      const std::size_t in_n =
          static_cast<std::size_t>(rng.uniform_int(1, 40));
      const char* scheme = schemes[out_n % 3];
      SCOPED_TRACE(std::string(scheme) + " out_n " + std::to_string(out_n) +
                   " in_n " + std::to_string(in_n) + " threads " +
                   std::to_string(threads));
      Tensor weights(Shape{out_n, in_n});
      weights.fill_normal(rng, 0.0f, 0.4f);
      Tensor bias(Shape{out_n});
      bias.fill_normal(rng, 0.0f, 0.1f);
      const ReliableLinear linear(weights, bias);
      Tensor input(Shape{in_n});
      input.fill_normal(rng, 0.0f, 1.0f);

      const auto exec = make_executor(scheme, nullptr);
      const ReliableResult fast = linear.forward(input, *exec);
      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle =
          linear.forward_generic(input, *oracle_exec);
      ASSERT_TRUE(fast.report.ok);
      expect_bits_equal(fast.output, linear.reference_forward(input));
      expect_bits_equal(fast.output, oracle.output);
      EXPECT_TRUE(fast.report == oracle.report);
    }
  }
  ComputeContext::set_global_threads(1);
}

// ------------------------------------------- armed random-geometry sweep

/// One armed fault environment of the sweep: kind, target, scheme, a
/// rate from sparse (a few upsets per layer, long credited stretches
/// between them, so the bucket must drain in bulk) to dense (persistent
/// errors that abort DMR/TMR mid-layer, so the tail must be zeroed), and
/// a bucket policy. The paper's factor 2 drains within an output or two
/// of per-op successes; the slow-drain policy (factor 24) keeps the level
/// up across a credited stretch, so a bulk drain to the wrong level
/// shows in the next upset's bucket peak.
struct ArmedCase {
  FaultConfig faults;
  const char* scheme;
  ReliabilityPolicy policy;
};

std::vector<ArmedCase> armed_cases() {
  struct Rate {
    FaultKind kind;
    double probability;
    int num_pes;
  };
  const Rate rates[] = {
      {FaultKind::kNone, 0.0, 7},           {FaultKind::kTransient, 2e-5, 128},
      {FaultKind::kTransient, 4e-4, 128},   {FaultKind::kTransient, 5e-3, 16},
      {FaultKind::kTransient, 0.08, 16},    {FaultKind::kIntermittent, 2e-5, 128},
      {FaultKind::kIntermittent, 5e-4, 32}, {FaultKind::kIntermittent, 8e-3, 8},
      {FaultKind::kPermanent, 0.01, 128},   {FaultKind::kPermanent, 0.1, 16},
      {FaultKind::kPermanent, 0.4, 8},
  };
  std::vector<ArmedCase> cases;
  for (const Rate& r : rates) {
    for (const FaultTarget target :
         {FaultTarget::kResult, FaultTarget::kOperandA,
          FaultTarget::kOperandB}) {
      for (const char* scheme : {"simplex", "dmr", "tmr"}) {
        for (const auto& [factor, ceiling] :
             {std::pair{2u, 4u}, std::pair{24u, 60u}}) {
          ArmedCase c{};
          c.faults.kind = r.kind;
          c.faults.target = target;
          c.faults.probability = r.probability;
          c.faults.num_pes = r.num_pes;
          c.faults.burst_continue = 0.6;
          c.faults.bit = -1;
          c.scheme = scheme;
          c.policy.bucket_factor = factor;
          c.policy.bucket_ceiling = ceiling;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

std::string describe(const ArmedCase& c) {
  return std::string(c.scheme) + " kind " +
         std::to_string(static_cast<int>(c.faults.kind)) + " target " +
         std::to_string(static_cast<int>(c.faults.target)) + " p " +
         std::to_string(c.faults.probability) + " pes " +
         std::to_string(c.faults.num_pes) + " bucket factor " +
         std::to_string(c.policy.bucket_factor);
}

/// Everything observable about one forward: output, report, executor and
/// injector state.
struct ArmedRun {
  ReliableResult result;
  ExecutorStats exec;
  InjectorStats injector;
  int next_pe = 0;
};

template <typename Forward>
ArmedRun run_armed(const ArmedCase& c, std::uint64_t seed,
                   const Forward& forward) {
  const auto exec = make_executor(
      c.scheme, std::make_shared<FaultInjector>(c.faults, seed));
  ArmedRun run{forward(*exec), exec->stats(), exec->injector()->stats(),
               exec->injector()->next_pe()};
  return run;
}

void expect_armed_equal(const ArmedRun& fast, const ArmedRun& oracle) {
  expect_bits_equal(fast.result.output, oracle.result.output);
  const ExecutionReport& a = fast.result.report;
  const ExecutionReport& b = oracle.result.report;
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.logical_ops, b.logical_ops);
  EXPECT_EQ(a.detected_errors, b.detected_errors);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.bucket_peak, b.bucket_peak);
  EXPECT_EQ(a.failed_op_index, b.failed_op_index);
  EXPECT_TRUE(a == b) << "ExecutionReport differs";
  EXPECT_EQ(fast.exec.logical_ops, oracle.exec.logical_ops);
  EXPECT_EQ(fast.exec.executions, oracle.exec.executions);
  EXPECT_EQ(fast.exec.disagreements, oracle.exec.disagreements);
  EXPECT_EQ(fast.injector.executions, oracle.injector.executions);
  EXPECT_EQ(fast.injector.faults, oracle.injector.faults);
  EXPECT_EQ(fast.next_pe, oracle.next_pe);
}

/// Coverage the armed sweeps must reach for their verdict to mean
/// anything: a layer that recovers from several upsets (so the bucket is
/// drained in bulk between them), and an abort whose zeroed tail differs
/// from the raw layer (so a tail left unzeroed would show).
struct Coverage {
  bool recovered_twice = false;
  bool aborted_with_tail = false;

  void note(const ExecutionReport& report, const Tensor& output,
            const Tensor& raw) {
    recovered_twice =
        recovered_twice || (report.ok && report.corrected_errors >= 2);
    if (report.ok) return;
    for (std::size_t j = 0; j < output.count(); ++j) {
      if (output[j] == 0.0f && raw[j] != 0.0f) aborted_with_tail = true;
    }
  }
};

TEST(RandomGeometrySweep, ArmedConvMatchesGenericAcrossKindsTargetsSchemes) {
  const std::vector<ArmedCase> cases = armed_cases();
  std::vector<Geometry> geometries = draw_sweep_geometries(cases.size());
  for (std::size_t i = 0; i < geometries.size(); i += 3) {
    // Every third case reduces over one or two taps of one channel, so
    // upsets land on an output's first or last op and a credited stretch
    // sits between two of them with no per-op successes around it.
    Geometry& g = geometries[i];
    g.in_c = 1;
    g.k = 1 + i % 2;
    g.pad = 0;
    g.h = std::max(g.h, g.k);
    g.w = std::max(g.w, g.k);
  }
  std::vector<ReliableConv2d> convs;
  std::vector<Tensor> inputs;
  std::vector<ArmedRun> oracles;  // serial: thread-independent
  Coverage coverage;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    convs.push_back(make_conv(geometries[i], 300 + i, cases[i].policy));
    inputs.push_back(make_input(geometries[i], 700 + i));
    oracles.push_back(run_armed(cases[i], 900 + i, [&](Executor& exec) {
      return convs[i].forward_generic(inputs[i], exec);
    }));
    coverage.note(oracles[i].result.report, oracles[i].result.output,
                  convs[i].reference_forward(inputs[i]));
  }
  for (const std::size_t threads : {1, 2, 8}) {
    ComputeContext::set_global_threads(threads);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(describe(cases[i]) + " case " + std::to_string(i) + ": " +
                   describe(geometries[i]) + " threads " +
                   std::to_string(threads));
      const ArmedRun fast =
          run_armed(cases[i], 900 + i, [&](Executor& exec) {
            return convs[i].forward(inputs[i], exec);
          });
      expect_armed_equal(fast, oracles[i]);
    }
  }
  ComputeContext::set_global_threads(1);
  EXPECT_TRUE(coverage.recovered_twice)
      << "the sweep must recover from several upsets in one layer";
  EXPECT_TRUE(coverage.aborted_with_tail)
      << "the sweep must abort with a visible zeroed tail";
}

TEST(RandomGeometrySweep, ArmedLinearMatchesGenericAcrossKindsTargetsSchemes) {
  const std::vector<ArmedCase> cases = armed_cases();
  Rng rng(31337);
  std::vector<ReliableLinear> linears;
  std::vector<Tensor> inputs;
  std::vector<ArmedRun> oracles;
  Coverage coverage;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    // Every third case is many one- or two-input neurons (see the conv
    // sweep); the rest straddle the lane blocks with long reductions.
    const bool tiny = i % 3 == 0;
    const auto out_n = static_cast<std::size_t>(
        tiny ? rng.uniform_int(64, 256)
             : rng.uniform_int(
                   1, 3 * static_cast<std::int64_t>(kFloatLanes) + 3));
    const auto in_n = static_cast<std::size_t>(
        tiny ? rng.uniform_int(1, 2) : rng.uniform_int(1, 300));
    Tensor weights(Shape{out_n, in_n});
    weights.fill_normal(rng, 0.0f, 0.4f);
    Tensor bias(Shape{out_n});
    bias.fill_normal(rng, 0.0f, 0.1f);
    linears.emplace_back(weights, bias, cases[i].policy);
    Tensor input(Shape{in_n});
    input.fill_normal(rng, 0.0f, 1.0f);
    inputs.push_back(std::move(input));
    oracles.push_back(run_armed(cases[i], 1900 + i, [&](Executor& exec) {
      return linears[i].forward_generic(inputs[i], exec);
    }));
    coverage.note(oracles[i].result.report, oracles[i].result.output,
                  linears[i].reference_forward(inputs[i]));
  }
  for (const std::size_t threads : {1, 2, 8}) {
    ComputeContext::set_global_threads(threads);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(describe(cases[i]) + " case " + std::to_string(i) +
                   " threads " + std::to_string(threads));
      const ArmedRun fast =
          run_armed(cases[i], 1900 + i, [&](Executor& exec) {
            return linears[i].forward(inputs[i], exec);
          });
      expect_armed_equal(fast, oracles[i]);
    }
  }
  ComputeContext::set_global_threads(1);
  EXPECT_TRUE(coverage.recovered_twice)
      << "the sweep must recover from several upsets in one layer";
  EXPECT_TRUE(coverage.aborted_with_tail)
      << "the sweep must abort with a visible zeroed tail";
}

}  // namespace
