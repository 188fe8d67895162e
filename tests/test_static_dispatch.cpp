// Static-dispatch bit-identity contract: for every (scheme, fault kind,
// geometry, seed), the devirtualized kernels forward() selects must
// produce the same output bits, the same ExecutionReport fields, the same
// ExecutorStats/InjectorStats and the same injector cursor as the
// retained generic virtual-dispatch path (forward_generic) — including
// the fault-free fast path's closed-form bookkeeping and the abort
// machinery under persistent faults, at every thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "faultsim/bitflip.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "reliable/reliable_linear.hpp"
#include "runtime/compute_context.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::CampaignSummary;
using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::faultsim::FaultTarget;
using hybridcnn::reliable::ConvSpec;
using hybridcnn::reliable::ExecutionReport;
using hybridcnn::reliable::Executor;
using hybridcnn::reliable::LayerDmrConv2d;
using hybridcnn::reliable::make_executor;
using hybridcnn::reliable::Qualified;
using hybridcnn::reliable::ReliabilityPolicy;
using hybridcnn::reliable::ReliableConv2d;
using hybridcnn::reliable::ReliableLinear;
using hybridcnn::reliable::ReliableResult;
using hybridcnn::runtime::ComputeContext;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

// ------------------------------------------------------------- helpers

struct Geometry {
  std::size_t out_c, in_c, k, stride, pad, h, w;
};

// Pad/stride edge cases on purpose: no-pad, pad < k, stride > k, pad
// close to k (border outputs lose most taps), 1x1 kernel, non-square.
const std::vector<Geometry> kGeometries = {
    {4, 3, 3, 2, 1, 13, 13},  //
    {2, 1, 3, 1, 0, 8, 8},    //
    {3, 2, 5, 3, 2, 17, 11},  //
    {1, 1, 3, 1, 1, 3, 3},    //
    {2, 2, 1, 1, 0, 5, 7},    //
    {1, 1, 5, 2, 4, 6, 6},    //
};

ReliableConv2d make_conv(const Geometry& g, ReliabilityPolicy policy = {},
                         std::uint64_t seed = 11) {
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

FaultConfig config_for(FaultKind kind,
                       FaultTarget target = FaultTarget::kResult) {
  FaultConfig cfg;
  cfg.kind = kind;
  cfg.target = target;
  cfg.bit = -1;
  switch (kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kTransient:
      cfg.probability = 2e-3;
      break;
    case FaultKind::kIntermittent:
      cfg.probability = 1e-3;
      cfg.burst_continue = 0.6;
      break;
    case FaultKind::kPermanent:
      // A PE fraction high enough that DMR/TMR runs exercise the abort
      // machinery (bucket exhaustion, failed_op_index).
      cfg.probability = 0.3;
      cfg.num_pes = 8;
      break;
  }
  return cfg;
}

void expect_outputs_bit_identical(const Tensor& a, const Tensor& b) {
  // Element loop for an indexed diagnostic on failure; the shared
  // helper at the end is the authoritative contract check.
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.count(); ++i) {
    ASSERT_EQ(hybridcnn::faultsim::float_bits(a[i]),
              hybridcnn::faultsim::float_bits(b[i]))
        << "first differing element at flat index " << i;
  }
  ASSERT_TRUE(hybridcnn::tensor::bit_identical(a, b));
}

void expect_reports_equal(const ExecutionReport& a,
                          const ExecutionReport& b) {
  // Field-wise expectations first for readable failure diagnostics; the
  // defaulted operator== at the end guarantees any field added to
  // ExecutionReport later stays covered.
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.logical_ops, b.logical_ops);
  EXPECT_EQ(a.detected_errors, b.detected_errors);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.corrected_errors, b.corrected_errors);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.bucket_peak, b.bucket_peak);
  EXPECT_EQ(a.bucket_exhausted, b.bucket_exhausted);
  EXPECT_EQ(a.failed_op_index, b.failed_op_index);
  EXPECT_TRUE(a == b) << "ExecutionReport field not covered above differs";
}

void expect_executors_equal(Executor& a, Executor& b) {
  EXPECT_EQ(a.stats().logical_ops, b.stats().logical_ops);
  EXPECT_EQ(a.stats().executions, b.stats().executions);
  EXPECT_EQ(a.stats().disagreements, b.stats().disagreements);
  ASSERT_EQ(a.injector() != nullptr, b.injector() != nullptr);
  if (a.injector() != nullptr) {
    EXPECT_EQ(a.injector()->stats().executions,
              b.injector()->stats().executions);
    EXPECT_EQ(a.injector()->stats().faults, b.injector()->stats().faults);
    EXPECT_EQ(a.injector()->next_pe(), b.injector()->next_pe());
  }
}

// ------------------------------------------- conv: scheme x kind matrix

TEST(StaticDispatchConv, MatchesGenericAcrossSchemesKindsAndGeometries) {
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kTransient, FaultKind::kIntermittent,
          FaultKind::kPermanent}) {
      for (std::size_t gi = 0; gi < kGeometries.size(); ++gi) {
        SCOPED_TRACE(std::string(scheme) + " kind " +
                     std::to_string(static_cast<int>(kind)) + " geometry " +
                     std::to_string(gi));
        const Geometry& g = kGeometries[gi];
        const ReliableConv2d conv = make_conv(g);
        const Tensor input = make_input(g);
        const FaultConfig cfg = config_for(kind);

        const auto fast_exec = make_executor(
            scheme, std::make_shared<FaultInjector>(cfg, 1000 + gi));
        const auto oracle_exec = make_executor(
            scheme, std::make_shared<FaultInjector>(cfg, 1000 + gi));

        const ReliableResult fast = conv.forward(input, *fast_exec);
        const ReliableResult oracle =
            conv.forward_generic(input, *oracle_exec);

        expect_outputs_bit_identical(fast.output, oracle.output);
        expect_reports_equal(fast.report, oracle.report);
        expect_executors_equal(*fast_exec, *oracle_exec);
      }
    }
  }
}

TEST(StaticDispatchConv, MatchesGenericForOperandTargetedFaults) {
  const Geometry g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  for (const FaultTarget target :
       {FaultTarget::kOperandA, FaultTarget::kOperandB}) {
    SCOPED_TRACE(static_cast<int>(target));
    const FaultConfig cfg = config_for(FaultKind::kTransient, target);
    const auto fast_exec =
        make_executor("dmr", std::make_shared<FaultInjector>(cfg, 7));
    const auto oracle_exec =
        make_executor("dmr", std::make_shared<FaultInjector>(cfg, 7));
    const ReliableResult fast = conv.forward(input, *fast_exec);
    const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
    expect_outputs_bit_identical(fast.output, oracle.output);
    expect_reports_equal(fast.report, oracle.report);
    expect_executors_equal(*fast_exec, *oracle_exec);
  }
}

TEST(StaticDispatchConv, FaultFreeFastPathWithNullInjector) {
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    SCOPED_TRACE(scheme);
    const Geometry& g = kGeometries[0];
    const ReliableConv2d conv = make_conv(g);
    const Tensor input = make_input(g);
    const auto fast_exec = make_executor(scheme, nullptr);
    const auto oracle_exec = make_executor(scheme, nullptr);
    const ReliableResult fast = conv.forward(input, *fast_exec);
    const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
    ASSERT_TRUE(fast.report.ok);
    expect_outputs_bit_identical(fast.output, oracle.output);
    expect_reports_equal(fast.report, oracle.report);
    expect_executors_equal(*fast_exec, *oracle_exec);
  }
}

TEST(StaticDispatchConv, FaultFreeFastPathReplaysInjectorCursor) {
  // A non-null injector of kind kNone still counts executions and
  // advances the round-robin PE cursor on every filter() call; the fast
  // path must replay both in bulk (advance_clean) bit-identically. A
  // sparse armed injector takes the same path between its upsets, so its
  // countdown and cursor must be replayed exactly too.
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (const FaultKind kind : {FaultKind::kNone, FaultKind::kTransient}) {
      SCOPED_TRACE(std::string(scheme) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      const Geometry& g = kGeometries[2];
      const ReliableConv2d conv = make_conv(g);
      const Tensor input = make_input(g);
      FaultConfig cfg = config_for(kind);
      cfg.num_pes = 7;  // prime-ish so the cursor position is interesting
      if (kind == FaultKind::kTransient) cfg.probability = 4e-4;
      const auto fast_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 3));
      const auto oracle_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 3));
      const ReliableResult fast = conv.forward(input, *fast_exec);
      const ReliableResult oracle =
          conv.forward_generic(input, *oracle_exec);
      ASSERT_GT(fast_exec->injector()->stats().executions, 0u);
      if (kind == FaultKind::kTransient) {
        // Sparse: at least one upset, far fewer than outputs.
        EXPECT_GT(oracle_exec->injector()->stats().faults, 0u);
        EXPECT_LT(oracle_exec->injector()->stats().faults,
                  fast.output.count() / 4);
      }
      expect_outputs_bit_identical(fast.output, oracle.output);
      expect_reports_equal(fast.report, oracle.report);
      expect_executors_equal(*fast_exec, *oracle_exec);
    }
  }
}

TEST(StaticDispatchConv, CustomExecutorFallsBackToGenericPath) {
  // An executor scheme the library does not know must keep working
  // through the virtual interface (scheme_kind() defaults to kCustom).
  class CustomExecutor final : public Executor {
   public:
    using Executor::Executor;
    Qualified<float> mul(float a, float b) override {
      ++stats_.logical_ops;
      return {raw_mul(a, b), true};
    }
    Qualified<float> add(float a, float b) override {
      ++stats_.logical_ops;
      return {raw_add(a, b), true};
    }
    [[nodiscard]] std::string name() const override { return "custom"; }
    [[nodiscard]] int redundancy() const override { return 1; }
  };

  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  CustomExecutor exec(nullptr);
  const ReliableResult result = conv.forward(input, exec);
  ASSERT_TRUE(result.report.ok);
  EXPECT_EQ(result.report.scheme, "custom");
  expect_outputs_bit_identical(result.output, conv.reference_forward(input));
  EXPECT_EQ(exec.stats().logical_ops, 2 * conv.mac_count(input.shape()));
}

TEST(StaticDispatchConv, MacCountClosedFormMatchesTapWalk) {
  for (const Geometry& g : kGeometries) {
    const ReliableConv2d conv = make_conv(g);
    const Shape in{g.in_c, g.h, g.w};
    const Shape out = conv.output_shape(in);
    // Reference: the original O(out_h*out_w*kh*kw) tap walk.
    std::uint64_t macs = 0;
    for (std::size_t oy = 0; oy < out[1]; ++oy) {
      for (std::size_t ox = 0; ox < out[2]; ++ox) {
        std::uint64_t taps = 0;
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const auto iy = static_cast<std::int64_t>(oy * g.stride + ky) -
                          static_cast<std::int64_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::int64_t>(g.h)) continue;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const auto ix = static_cast<std::int64_t>(ox * g.stride + kx) -
                            static_cast<std::int64_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::int64_t>(g.w)) continue;
            ++taps;
          }
        }
        macs += taps * g.in_c;
      }
    }
    macs *= out[0];
    EXPECT_EQ(conv.mac_count(in), macs)
        << "geometry k=" << g.k << " stride=" << g.stride
        << " pad=" << g.pad;
  }
}

// ------------------------------------------------------ linear kernels

TEST(StaticDispatchLinear, MatchesGenericAcrossSchemesAndKinds) {
  Rng rng(5);
  Tensor weights(Shape{6, 17});
  weights.fill_normal(rng, 0.0f, 0.4f);
  Tensor bias(Shape{6});
  bias.fill_normal(rng, 0.0f, 0.1f);
  const ReliableLinear linear(weights, bias);
  Tensor input(Shape{17});
  input.fill_normal(rng, 0.0f, 1.0f);

  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kTransient, FaultKind::kIntermittent,
          FaultKind::kPermanent}) {
      SCOPED_TRACE(std::string(scheme) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      FaultConfig cfg = config_for(kind);
      if (kind == FaultKind::kTransient) {
        cfg.probability = 0.02;  // few hundred ops: keep faults likely
      }
      const auto fast_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 31));
      const auto oracle_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 31));
      const ReliableResult fast = linear.forward(input, *fast_exec);
      const ReliableResult oracle =
          linear.forward_generic(input, *oracle_exec);
      expect_outputs_bit_identical(fast.output, oracle.output);
      expect_reports_equal(fast.report, oracle.report);
      expect_executors_equal(*fast_exec, *oracle_exec);
    }
  }
}

TEST(StaticDispatchLinear, FaultFreeFastPathMatchesReference) {
  Rng rng(9);
  Tensor weights(Shape{4, 12});
  weights.fill_normal(rng, 0.0f, 0.4f);
  Tensor bias(Shape{4});
  bias.fill_normal(rng, 0.0f, 0.1f);
  const ReliableLinear linear(weights, bias);
  Tensor input(Shape{12});
  input.fill_normal(rng, 0.0f, 1.0f);

  const auto exec = make_executor("dmr", nullptr);
  const ReliableResult result = linear.forward(input, *exec);
  ASSERT_TRUE(result.report.ok);
  expect_outputs_bit_identical(result.output,
                               linear.reference_forward(input));
  EXPECT_EQ(result.report.logical_ops, 2u * 4 * 12);
  EXPECT_EQ(result.report.commits, result.report.logical_ops);
  EXPECT_EQ(exec->stats().executions, 2u * result.report.logical_ops);
}

// ----------------------------------------------------------- layer DMR

TEST(StaticDispatchLayerDmr, MatchesGenericFaultFreeAndFaulty) {
  const Geometry& g = kGeometries[0];
  const ReliableConv2d ref = make_conv(g);
  ReliabilityPolicy policy;
  policy.max_retries_per_op = 64;
  policy.bucket_ceiling = 200;
  const LayerDmrConv2d layer(ref.weights(), ref.bias(), ref.spec(), policy);
  const Tensor input = make_input(g);

  // A sparse transient rate (a mean gap of about one layer pass) mixes
  // passes that fit before the next upset — raw arithmetic, credited in
  // closed form — with passes that carry one and run per op.
  FaultConfig sparse = config_for(FaultKind::kTransient);
  sparse.probability = 1e-4;
  for (const FaultConfig& cfg :
       {config_for(FaultKind::kNone), config_for(FaultKind::kTransient),
        sparse, config_for(FaultKind::kPermanent)}) {
    SCOPED_TRACE(std::to_string(static_cast<int>(cfg.kind)) + " p " +
                 std::to_string(cfg.probability));
    const auto fast_exec =
        make_executor("simplex", std::make_shared<FaultInjector>(cfg, 77));
    const auto oracle_exec =
        make_executor("simplex", std::make_shared<FaultInjector>(cfg, 77));
    const ReliableResult fast = layer.forward(input, *fast_exec);
    const ReliableResult oracle = layer.forward_generic(input, *oracle_exec);
    if (cfg.probability == sparse.probability) {
      // A pass holding an upset runs per op; with more passes than
      // upsets, at least one pass held none and ran as raw arithmetic.
      const std::uint64_t faults = oracle_exec->injector()->stats().faults;
      EXPECT_GT(faults, 0u);
      EXPECT_GT(2 * (oracle.report.retries + 1), faults);
    }
    expect_outputs_bit_identical(fast.output, oracle.output);
    expect_reports_equal(fast.report, oracle.report);
    expect_executors_equal(*fast_exec, *oracle_exec);
  }
}

TEST(StaticDispatchLayerDmr, FaultFreeFastPathMatchesReference) {
  const Geometry& g = kGeometries[1];
  const ReliableConv2d ref = make_conv(g);
  const LayerDmrConv2d layer(ref.weights(), ref.bias(), ref.spec());
  const Tensor input = make_input(g);
  const auto exec = make_executor("simplex", nullptr);
  const ReliableResult result = layer.forward(input, *exec);
  ASSERT_TRUE(result.report.ok);
  expect_outputs_bit_identical(result.output, ref.reference_forward(input));
  // Two unqualified layer passes, two logical ops per MAC each.
  EXPECT_EQ(result.report.logical_ops,
            4 * ref.mac_count(input.shape()));
  EXPECT_EQ(exec->stats().logical_ops, result.report.logical_ops);
  EXPECT_EQ(result.report.commits, 1u);
}

// ------------------------------------------ campaigns: 1/2/8 threads

CampaignSummary dispatch_campaign(const ReliableConv2d& conv,
                                  const Tensor& input, const Tensor& golden,
                                  const char* scheme, std::size_t runs,
                                  bool generic) {
  const auto make_exec = [&](std::size_t run) {
    FaultConfig cfg = config_for(FaultKind::kTransient);
    cfg.probability = 5e-4;
    return make_executor(scheme,
                         std::make_shared<FaultInjector>(cfg, 4000 + run));
  };
  const auto classify = [&](std::size_t, const ReliableResult& result,
                            Executor& exec) {
    return hybridcnn::faultsim::classify(exec.injector()->stats().faults > 0,
                                         !result.report.ok,
                                         result.output == golden);
  };
  return hybridcnn::faultsim::run_campaign(runs, [&](std::size_t run) {
    const auto exec = make_exec(run);
    const ReliableResult result = generic ? conv.forward_generic(input, *exec)
                                          : conv.forward(input, *exec);
    return classify(run, result, *exec);
  });
}

TEST(StaticDispatchCampaign, SummariesMatchGenericAtEveryThreadCount) {
  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  const Tensor golden = conv.reference_forward(input);
  constexpr std::size_t kRuns = 24;

  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    SCOPED_TRACE(scheme);
    std::vector<CampaignSummary> summaries;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ComputeContext::set_global_threads(threads);
      summaries.push_back(
          dispatch_campaign(conv, input, golden, scheme, kRuns, false));
      summaries.push_back(
          dispatch_campaign(conv, input, golden, scheme, kRuns, true));
    }
    ComputeContext::set_global_threads(1);
    for (std::size_t i = 1; i < summaries.size(); ++i) {
      EXPECT_EQ(summaries[0].runs, summaries[i].runs);
      EXPECT_EQ(summaries[0].correct, summaries[i].correct);
      EXPECT_EQ(summaries[0].corrected, summaries[i].corrected);
      EXPECT_EQ(summaries[0].detected_abort, summaries[i].detected_abort);
      EXPECT_EQ(summaries[0].silent_corruption,
                summaries[i].silent_corruption);
    }
  }
}

}  // namespace
