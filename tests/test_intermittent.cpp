// Intermittent (checkpointed) execution: classify_intermittent must
// survive every injected power-cycle trace and resume bit-identically —
// the final classification equals the uninterrupted classify() with the
// same seed, for EVERY cut point.
#include <gtest/gtest.h>

#include <memory>

#include "core/hybrid_network.hpp"
#include "data/renderer.hpp"
#include "faultsim/power.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "util/rng.hpp"

namespace {

using namespace hybridcnn;
using core::FaultSeedStream;
using core::HybridClassification;
using core::HybridConfig;
using core::HybridNetwork;
using faultsim::PowerSchedule;
using faultsim::PowerTrace;
using tensor::Tensor;

std::unique_ptr<nn::Sequential> make_testnet(std::uint64_t seed = 3) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 128 -> 61
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);  // 61 -> 30
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 30 * 30, 5);
  nn::init_network(*net, seed);
  return net;
}

Tensor stop_image() { return data::render_stop_sign(128, 6.0); }

/// Bitwise comparison of everything a downstream consumer observes.
void expect_same_classification(const HybridClassification& a,
                                const HybridClassification& b) {
  EXPECT_EQ(a.predicted_class, b.predicted_class);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.safety_critical, b.safety_critical);
  EXPECT_EQ(a.qualifier.match, b.qualifier.match);
  EXPECT_EQ(a.qualifier.shape.distance, b.qualifier.shape.distance);
  EXPECT_EQ(a.conv1_report.ok, b.conv1_report.ok);
}

// ------------------------------------------------------- power schedule

TEST(PowerSchedule, EmptyTraceIsStablePower) {
  const PowerTrace trace;
  PowerSchedule sched(trace);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(sched.step());
  EXPECT_EQ(sched.cycles(), 0u);
}

TEST(PowerSchedule, BudgetsCutAfterConfiguredSteps) {
  const PowerTrace trace = PowerTrace::periodic(2, 2);
  PowerSchedule sched(trace);
  EXPECT_TRUE(sched.step());
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step()) << "third step exceeds the 2-step budget";
  EXPECT_TRUE(sched.step());
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  // Trace exhausted: stable from here.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(sched.step());
  EXPECT_EQ(sched.cycles(), 2u);
}

TEST(PowerSchedule, ZeroBudgetIsImmediateBrownOut) {
  const PowerTrace trace = PowerTrace::periodic(0, 3);
  PowerSchedule sched(trace);
  EXPECT_FALSE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(sched.cycles(), 3u);
}

TEST(PowerSchedule, SampledTraceDeterministicForSeed) {
  util::Rng a(5);
  util::Rng b(5);
  const PowerTrace ta = PowerTrace::sampled(a, 8, 0, 3);
  const PowerTrace tb = PowerTrace::sampled(b, 8, 0, 3);
  EXPECT_EQ(ta.budgets, tb.budgets);
  ASSERT_EQ(ta.budgets.size(), 8u);
  for (const std::size_t budget : ta.budgets) EXPECT_LE(budget, 3u);
}

// ------------------------------------------------ intermittent classify

TEST(Intermittent, StablePowerMatchesClassifyExactly) {
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  FaultSeedStream ref_seeds = net.seed_stream();
  const HybridClassification ref = net.classify(img, ref_seeds);

  FaultSeedStream seeds = net.seed_stream();
  const auto r = net.classify_intermittent(img, seeds, PowerTrace{});
  expect_same_classification(r.classification, ref);
  EXPECT_EQ(r.power_cycles, 0u);
  // 5 layers, conv1 + qualifier fused into step 0: 5 steps, no retries.
  EXPECT_EQ(r.steps_committed, 5u);
  EXPECT_EQ(r.steps_executed, 5u);
  EXPECT_EQ(seeds.peek(), ref_seeds.peek()) << "consumes exactly one seed";
}

TEST(Intermittent, EveryCutPointResumesBitIdentically) {
  // The acceptance criterion: for EVERY possible power-cut point —
  // including repeated cuts at the same step and a cut during the
  // expensive dependable stage — the resumed classification is
  // bit-identical to the uninterrupted one.
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  FaultSeedStream ref_seeds = net.seed_stream();
  const HybridClassification ref = net.classify(img, ref_seeds);

  constexpr std::size_t kSteps = 5;
  for (std::size_t cut = 0; cut < kSteps; ++cut) {
    // One cut after `cut` completed steps, then stable power.
    PowerTrace trace;
    trace.budgets = {cut};
    FaultSeedStream seeds = net.seed_stream();
    const auto r = net.classify_intermittent(img, seeds, trace);
    expect_same_classification(r.classification, ref);
    EXPECT_EQ(r.power_cycles, 1u) << "cut " << cut;
    EXPECT_EQ(r.steps_committed, kSteps) << "cut " << cut;
    EXPECT_EQ(r.steps_executed, kSteps + 1)
        << "exactly the interrupted step re-executes (cut " << cut << ")";
  }
}

TEST(Intermittent, SurvivesBudgetOneThrashing) {
  // Worst sustainable environment: every window completes exactly one
  // step before dying. Progress is one commit per window; the result
  // must still be bit-identical.
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  FaultSeedStream ref_seeds = net.seed_stream();
  const HybridClassification ref = net.classify(img, ref_seeds);

  FaultSeedStream seeds = net.seed_stream();
  const auto r =
      net.classify_intermittent(img, seeds, PowerTrace::periodic(1, 4));
  expect_same_classification(r.classification, ref);
  EXPECT_EQ(r.power_cycles, 4u);
  EXPECT_EQ(r.steps_committed, 5u);
  EXPECT_EQ(r.steps_executed, 9u) << "4 cuts each lose one in-flight step";
}

TEST(Intermittent, SurvivesZeroBudgetBrownOuts) {
  // Brown-out windows that fail before any step completes must not make
  // negative progress or hang; the trace eventually exhausts.
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  FaultSeedStream ref_seeds = net.seed_stream();
  const HybridClassification ref = net.classify(img, ref_seeds);

  FaultSeedStream seeds = net.seed_stream();
  const auto r =
      net.classify_intermittent(img, seeds, PowerTrace::periodic(0, 6));
  expect_same_classification(r.classification, ref);
  EXPECT_EQ(r.power_cycles, 6u);
  EXPECT_EQ(r.steps_committed, 5u);
}

TEST(Intermittent, RandomTracesAllResumeBitIdentically) {
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  FaultSeedStream ref_seeds = net.seed_stream();
  const HybridClassification ref = net.classify(img, ref_seeds);

  util::Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    const PowerTrace trace = PowerTrace::sampled(rng, 5, 0, 4);
    FaultSeedStream seeds = net.seed_stream();
    const auto r = net.classify_intermittent(img, seeds, trace);
    expect_same_classification(r.classification, ref);
    // Execution may complete before the trace exhausts, so not every
    // window produces a cut.
    EXPECT_LE(r.power_cycles, trace.budgets.size()) << "trial " << trial;
    EXPECT_EQ(r.steps_committed, 5u) << "trial " << trial;
  }
}

TEST(Intermittent, ArmedInjectorReplaysIdenticallyAcrossCuts) {
  // With compute faults armed, step 0 (the reliable stage) consumes
  // injector randomness. A cut during any step must replay from the
  // per-run seed, reproducing the exact same fault pattern — so the
  // interrupted run still matches the uninterrupted one bit for bit.
  HybridConfig cfg;
  cfg.fault_config.kind = faultsim::FaultKind::kTransient;
  cfg.fault_config.probability = 1e-4;
  const HybridNetwork net(make_testnet(), 0, cfg);
  const Tensor img = stop_image();

  FaultSeedStream ref_seeds = net.seed_stream();
  const HybridClassification ref = net.classify(img, ref_seeds);

  for (std::size_t cut = 0; cut < 3; ++cut) {
    PowerTrace trace;
    trace.budgets = {cut, 1};
    FaultSeedStream seeds = net.seed_stream();
    const auto r = net.classify_intermittent(img, seeds, trace);
    expect_same_classification(r.classification, ref);
  }
}

// ----------------------------------- checkpoint-slot memory corruption

TEST(Intermittent, EccCheckpointSurvivesSlotUpsets) {
  // The committed checkpoint sits in (simulated) memory across power
  // cycles, so it takes SEUs too. With one upset injected into the slot
  // at every reboot and the slot ECC-protected, every flip is scrubbed
  // before the resumed step reads the activation — the classification
  // stays bit-identical to the uninterrupted run.
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  FaultSeedStream ref_seeds = net.seed_stream();
  const HybridClassification ref = net.classify(img, ref_seeds);

  core::CheckpointMemoryModel memory;
  memory.flips_per_cycle = 1;
  memory.ecc = true;
  FaultSeedStream seeds = net.seed_stream();
  const auto r = net.classify_intermittent(
      img, seeds, PowerTrace::periodic(1, 4), memory);
  expect_same_classification(r.classification, ref);
  EXPECT_EQ(r.power_cycles, 4u);
  EXPECT_GT(r.checkpoint_bits_flipped, 0u);
  EXPECT_EQ(r.checkpoint_corrected, r.checkpoint_bits_flipped)
      << "a single upset per reboot is always scrub-correctable";
  EXPECT_EQ(r.checkpoint_uncorrectable, 0u);
}

TEST(Intermittent, CheckpointUpsetsAreDeterministicForSeed) {
  // The slot-corruption stream derives from the run seed alone: two
  // identical calls must agree bit for bit — with and without ECC.
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  for (const bool ecc : {false, true}) {
    core::CheckpointMemoryModel memory;
    memory.flips_per_cycle = 3;
    memory.ecc = ecc;
    FaultSeedStream sa = net.seed_stream();
    FaultSeedStream sb = net.seed_stream();
    const auto a = net.classify_intermittent(
        img, sa, PowerTrace::periodic(1, 4), memory);
    const auto b = net.classify_intermittent(
        img, sb, PowerTrace::periodic(1, 4), memory);
    expect_same_classification(a.classification, b.classification);
    EXPECT_EQ(a.checkpoint_bits_flipped, b.checkpoint_bits_flipped) << ecc;
    EXPECT_EQ(a.checkpoint_corrected, b.checkpoint_corrected) << ecc;
    EXPECT_EQ(a.checkpoint_uncorrectable, b.checkpoint_uncorrectable) << ecc;
  }
}

TEST(Intermittent, UnprotectedCheckpointTakesUpsetsUncorrected) {
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  core::CheckpointMemoryModel memory;
  memory.flips_per_cycle = 1;
  memory.ecc = false;
  FaultSeedStream seeds = net.seed_stream();
  const auto r = net.classify_intermittent(
      img, seeds, PowerTrace::periodic(1, 4), memory);
  EXPECT_GT(r.checkpoint_bits_flipped, 0u);
  EXPECT_EQ(r.checkpoint_corrected, 0u)
      << "without ECC nothing scrubs the slot";
  EXPECT_EQ(r.checkpoint_uncorrectable, 0u);
  EXPECT_EQ(r.steps_committed, 5u) << "execution still terminates";
}

TEST(Intermittent, DefaultMemoryModelLeavesTheSlotPristine) {
  const HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  FaultSeedStream ref_seeds = net.seed_stream();
  const HybridClassification ref = net.classify(img, ref_seeds);

  FaultSeedStream seeds = net.seed_stream();
  const auto r = net.classify_intermittent(
      img, seeds, PowerTrace::periodic(1, 4), core::CheckpointMemoryModel{});
  expect_same_classification(r.classification, ref);
  EXPECT_EQ(r.checkpoint_bits_flipped, 0u);
  EXPECT_EQ(r.checkpoint_corrected, 0u);
  EXPECT_EQ(r.checkpoint_uncorrectable, 0u);
}

}  // namespace
