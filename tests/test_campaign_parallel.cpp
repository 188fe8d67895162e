// Parallel campaign driver: outcome bookkeeping, per-run isolation, and
// bit-identical summaries across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "faultsim/campaign.hpp"
#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "runtime/compute_context.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace hybridcnn;
using faultsim::CampaignSummary;
using faultsim::Outcome;
using runtime::ComputeContext;

class CampaignParallel : public ::testing::Test {
 protected:
  void TearDown() override { ComputeContext::set_global_threads(1); }
};

TEST_F(CampaignParallel, RunsEachIndexOnceAndCountsOutcomes) {
  ComputeContext::set_global_threads(4);
  constexpr std::size_t kRuns = 103;
  std::vector<std::atomic<int>> calls(kRuns);
  const CampaignSummary s = faultsim::run_campaign(kRuns, [&](std::size_t r) {
    calls[r]++;
    switch (r % 4) {
      case 0: return Outcome::kCorrect;
      case 1: return Outcome::kCorrected;
      case 2: return Outcome::kDetectedAbort;
      default: return Outcome::kSilentCorruption;
    }
  });
  for (std::size_t r = 0; r < kRuns; ++r) EXPECT_EQ(calls[r].load(), 1);
  EXPECT_EQ(s.runs, kRuns);
  EXPECT_EQ(s.correct, 26u);           // ceil(103 / 4)
  EXPECT_EQ(s.corrected, 26u);
  EXPECT_EQ(s.detected_abort, 26u);
  EXPECT_EQ(s.silent_corruption, 25u);
}

/// Small reliable conv campaign under SEU injection; the workload of the
/// ABL-FAULT bench scaled down to test size.
CampaignSummary conv_campaign(const char* scheme, double rate,
                              std::size_t runs) {
  util::Rng rng(3);
  tensor::Tensor weights(tensor::Shape{4, 2, 3, 3});
  weights.fill_normal(rng, 0.0f, 0.3f);
  tensor::Tensor bias(tensor::Shape{4});
  const reliable::ReliableConv2d conv(weights, bias,
                                      reliable::ConvSpec{1, 1});
  tensor::Tensor input(tensor::Shape{2, 10, 10});
  input.fill_normal(rng, 0.0f, 1.0f);
  const tensor::Tensor golden = conv.reference_forward(input);

  return faultsim::run_campaign(runs, [&](std::size_t run) {
    faultsim::FaultConfig cfg;
    cfg.kind = faultsim::FaultKind::kTransient;
    cfg.probability = rate;
    cfg.bit = -1;
    const auto exec = reliable::make_executor(
        scheme, std::make_shared<faultsim::FaultInjector>(cfg, 500 + run));
    const reliable::ReliableResult result = conv.forward(input, *exec);
    return faultsim::classify(exec->injector()->stats().faults > 0,
                              !result.report.ok, result.output == golden);
  });
}

TEST_F(CampaignParallel, ConvCampaignIsThreadCountInvariant) {
  // A rate high enough to produce a mix of outcomes, so the equality
  // check is meaningful.
  constexpr double kRate = 5e-5;
  constexpr std::size_t kRuns = 60;
  for (const char* scheme : {"simplex", "dmr"}) {
    std::vector<CampaignSummary> summaries;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ComputeContext::set_global_threads(threads);
      summaries.push_back(conv_campaign(scheme, kRate, kRuns));
    }
    ASSERT_EQ(summaries[0].runs, kRuns);
    for (std::size_t i = 1; i < summaries.size(); ++i) {
      EXPECT_EQ(summaries[0].correct, summaries[i].correct) << scheme;
      EXPECT_EQ(summaries[0].corrected, summaries[i].corrected) << scheme;
      EXPECT_EQ(summaries[0].detected_abort, summaries[i].detected_abort)
          << scheme;
      EXPECT_EQ(summaries[0].silent_corruption,
                summaries[i].silent_corruption)
          << scheme;
    }
  }
}

TEST_F(CampaignParallel, DmrCampaignHasNoSilentCorruption) {
  ComputeContext::set_global_threads(8);
  const CampaignSummary s = conv_campaign("dmr", 1e-4, 40);
  EXPECT_EQ(s.silent_corruption, 0u);
  EXPECT_GT(s.corrected + s.detected_abort, 0u);  // faults did activate
}

TEST_F(CampaignParallel, SimplexCampaignLeaksSdcUnderFaults) {
  ComputeContext::set_global_threads(8);
  const CampaignSummary s = conv_campaign("simplex", 1e-4, 40);
  EXPECT_GT(s.silent_corruption, 0u);
}

TEST_F(CampaignParallel, RethrowsTheLowestRunException) {
  // A throwing run body must surface the same exception a serial sweep
  // would hit first — the lowest throwing run index — regardless of the
  // thread count scheduling the runs.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ComputeContext::set_global_threads(threads);
    try {
      (void)faultsim::run_campaign(500, [](std::size_t r) {
        if (r >= 71) throw std::runtime_error("run " + std::to_string(r));
        return Outcome::kCorrect;
      });
      FAIL() << "expected a throw at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run 71") << threads << " threads";
    }
  }
}

TEST_F(CampaignParallel, SummariesMergeByFieldwiseAddition) {
  const auto outcome_of = [](std::size_t r) {
    switch (r % 4) {
      case 0: return Outcome::kCorrect;
      case 1: return Outcome::kCorrected;
      case 2: return Outcome::kDetectedAbort;
      default: return Outcome::kSilentCorruption;
    }
  };
  const CampaignSummary whole = faultsim::run_campaign(103, outcome_of);
  // Split at an odd boundary; the shifted index keeps the outcome of
  // each global run identical across the split.
  const CampaignSummary head = faultsim::run_campaign(37, outcome_of);
  const CampaignSummary tail = faultsim::run_campaign(
      103 - 37, [&](std::size_t r) { return outcome_of(37 + r); });
  EXPECT_EQ(head + tail, whole);
  CampaignSummary acc = head;
  acc += tail;
  EXPECT_EQ(acc, whole);
}

}  // namespace
