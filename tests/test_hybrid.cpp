// HybridNetwork: bifurcated dataflow, qualification policy, fail-stop
// behaviour and the footprint (cost split) argument.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "core/hybrid_network.hpp"
#include "core/shape_qualifier.hpp"
#include "data/dataset.hpp"
#include "data/renderer.hpp"
#include "nn/conv2d.hpp"
#include "nn/filters.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/alexnet.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "nn/trainer.hpp"
#include "reliable/executor.hpp"

namespace {

using namespace hybridcnn;
using core::Decision;
using core::FaultSeedStream;
using core::HybridClassification;
using core::HybridConfig;
using core::HybridNetwork;
using core::QualifierSource;
using core::ShapeQualifier;
using tensor::Shape;
using tensor::Tensor;

/// Small CNN over 128x128 images: fast enough for per-test reliable
/// execution while leaving the qualifier usable resolution.
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

/// One classification over a fresh caller-owned stream at the network's
/// configured base — the serial idiom of the const classify API.
HybridClassification classify_once(const HybridNetwork& net,
                                   const Tensor& img) {
  FaultSeedStream seeds = net.seed_stream();
  return net.classify(img, seeds);
}

// The wrapped model is read-only: training happens before wrapping.
static_assert(std::is_same_v<decltype(std::declval<HybridNetwork&>().cnn()),
                             const nn::Sequential&>);

TEST(HybridNetwork, ConstructionInstallsAndFreezesSobelFilter) {
  HybridConfig cfg;
  cfg.dependable_filter = 2;
  HybridNetwork hybrid(make_testnet(), 0, cfg);
  const auto& conv1 = hybrid.cnn().layer_as<nn::Conv2d>(0);
  EXPECT_TRUE(conv1.filter_frozen(2));
  EXPECT_EQ(conv1.filter(2), nn::sobel_filter(3, 7));
  // The reliable kernel is built from the installed weights.
  EXPECT_TRUE(tensor::bit_identical(hybrid.reliable_conv1().weights(),
                                    conv1.weights()));

  // The free pre-initialisation installs the same filter on a bare model.
  auto bare = make_testnet();
  core::install_dependable_filters(*bare, 0, cfg);
  const auto& bare_conv1 = bare->layer_as<nn::Conv2d>(0);
  EXPECT_TRUE(bare_conv1.filter_frozen(2));
  EXPECT_EQ(bare_conv1.filter(2), nn::sobel_filter(3, 7));
}

TEST(HybridNetwork, ConstructionValidation) {
  HybridConfig cfg;
  cfg.dependable_filter = 99;
  EXPECT_THROW(HybridNetwork(make_testnet(), 0, cfg),
               std::invalid_argument);
  EXPECT_THROW(HybridNetwork(nullptr, 0, HybridConfig{}),
               std::invalid_argument);
  // Layer 1 is a ReLU, not a Conv2d.
  EXPECT_THROW(HybridNetwork(make_testnet(), 1, HybridConfig{}),
               std::bad_cast);

  EXPECT_THROW(core::install_dependable_filters(*make_testnet(), 0, cfg),
               std::invalid_argument);
  EXPECT_THROW(
      core::install_dependable_filters(*make_testnet(), 1, HybridConfig{}),
      std::bad_cast);
}

/// Two epochs of SGD with momentum over a model whose dependable filters
/// were installed first, then the wrap: the frozen filters must come out
/// of training bit-identical to the Sobel kernels, and wrapping must
/// neither move a conv1 bit nor build its reliable kernel from anything
/// but those bits.
void expect_train_then_wrap_keeps_filters(QualifierSource source) {
  HybridConfig cfg;
  cfg.qualifier.source = source;
  cfg.dependable_filter = 2;
  const bool pair = source == QualifierSource::kDependableFeatureMapPair;

  auto cnn = std::make_unique<nn::Sequential>();
  cnn->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 32 -> 13
  cnn->emplace<nn::ReLU>();
  cnn->emplace<nn::Flatten>();
  cnn->emplace<nn::Linear>(8 * 13 * 13, data::kNumClasses);
  nn::init_network(*cnn, 5);
  core::install_dependable_filters(*cnn, 0, cfg);
  const Tensor initial = cnn->layer_as<nn::Conv2d>(0).weights();
  const Tensor initial_bias = cnn->layer_as<nn::Conv2d>(0).bias();

  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 10;
  tc.learning_rate = 0.01f;
  tc.momentum = 0.9f;
  nn::train(*cnn, data::make_dataset(4, data::DatasetConfig{}, 17), tc);

  const auto& trained = cnn->layer_as<nn::Conv2d>(0);
  ASSERT_FALSE(tensor::bit_identical(trained.weights(), initial))
      << "training moved no conv1 weight";
  if (pair) {
    EXPECT_TRUE(tensor::bit_identical(
        trained.filter(2), nn::sobel_axis_filter(3, 7, nn::SobelAxis::kX)));
    EXPECT_TRUE(tensor::bit_identical(
        trained.filter(3), nn::sobel_axis_filter(3, 7, nn::SobelAxis::kY)));
  } else {
    EXPECT_TRUE(
        tensor::bit_identical(trained.filter(2), nn::sobel_filter(3, 7)));
  }
  for (std::size_t f = 2; f <= (pair ? 3u : 2u); ++f) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(trained.bias()[f]),
              std::bit_cast<std::uint32_t>(initial_bias[f]))
        << "frozen bias " << f << " moved";
  }
  const Tensor weights = trained.weights();
  const Tensor bias = trained.bias();

  const HybridNetwork hybrid(std::move(cnn), 0, cfg);
  const auto& conv1 = hybrid.cnn().layer_as<nn::Conv2d>(0);
  EXPECT_TRUE(tensor::bit_identical(conv1.weights(), weights));
  EXPECT_TRUE(tensor::bit_identical(conv1.bias(), bias));
  EXPECT_TRUE(
      tensor::bit_identical(hybrid.reliable_conv1().weights(), weights));
  EXPECT_TRUE(tensor::bit_identical(hybrid.reliable_conv1().bias(), bias));
}

TEST(HybridNetwork, TrainThenWrapKeepsDependableFilterBits) {
  expect_train_then_wrap_keeps_filters(QualifierSource::kDependableFeatureMap);
}

TEST(HybridNetwork, TrainThenWrapKeepsDependablePairBits) {
  expect_train_then_wrap_keeps_filters(
      QualifierSource::kDependableFeatureMapPair);
}

TEST(HybridNetwork, FaultFreeClassifyProducesQualifiedEvidence) {
  HybridNetwork hybrid(make_testnet(), 0, HybridConfig{});
  const HybridClassification r = classify_once(hybrid, stop_image());

  EXPECT_TRUE(r.conv1_report.ok);
  EXPECT_EQ(r.conv1_report.detected_errors, 0u);
  EXPECT_GE(r.predicted_class, 0);
  EXPECT_LT(r.predicted_class, 5);
  EXPECT_GT(r.confidence, 0.0);
  EXPECT_LE(r.confidence, 1.0);
  // The image is an octagonal stop sign: the full-resolution qualifier
  // must confirm the shape regardless of CNN weights.
  EXPECT_TRUE(r.qualifier.match)
      << "dist=" << r.qualifier.shape.distance
      << " corners=" << r.qualifier.shape.corners;
  EXPECT_TRUE(r.qualifier.reliable);
}

TEST(HybridNetwork, DecisionFollowsPolicyForCriticalAndNonCritical) {
  // Observe the (deterministic) prediction once, then wrap the same
  // network topology in two policies: one where that class is critical
  // and one where it is not.
  const Tensor img = stop_image();
  HybridConfig probe_cfg;
  probe_cfg.critical_classes = {};
  HybridNetwork probe(make_testnet(7), 0, probe_cfg);
  const int predicted = classify_once(probe, img).predicted_class;

  HybridConfig critical_cfg;
  critical_cfg.critical_classes = {predicted};
  HybridNetwork critical(make_testnet(7), 0, critical_cfg);
  const HybridClassification rc = classify_once(critical, img);
  EXPECT_EQ(rc.predicted_class, predicted);
  EXPECT_TRUE(rc.safety_critical);
  EXPECT_EQ(rc.decision, Decision::kQualifiedReliable);
  EXPECT_TRUE(rc.reliable_positive());

  HybridConfig other_cfg;
  other_cfg.critical_classes = {predicted + 1};
  HybridNetwork other(make_testnet(7), 0, other_cfg);
  const HybridClassification ro = classify_once(other, img);
  EXPECT_FALSE(ro.safety_critical);
  EXPECT_EQ(ro.decision, Decision::kNonCriticalPass);
  EXPECT_FALSE(ro.reliable_positive());
}

TEST(HybridNetwork, NonOctagonImageIsDemotedForCriticalClass) {
  // A square sign: whatever the CNN says, if the predicted class is
  // critical the qualifier must refuse it (no octagon present).
  data::RenderParams p;
  p.cls = data::SignClass::kParking;
  p.size = 128;
  p.scale = 0.8;
  const Tensor img = data::render_sign(p);

  HybridConfig probe_cfg;
  probe_cfg.critical_classes = {};
  HybridNetwork probe(make_testnet(11), 0, probe_cfg);
  const int predicted = classify_once(probe, img).predicted_class;

  HybridConfig cfg;
  cfg.critical_classes = {predicted};
  HybridNetwork hybrid(make_testnet(11), 0, cfg);
  const HybridClassification r = classify_once(hybrid, img);
  EXPECT_FALSE(r.qualifier.match);
  EXPECT_EQ(r.decision, Decision::kDemotedUnqualified);
  EXPECT_FALSE(r.reliable_positive());
}

TEST(HybridNetwork, DmrCorrectsTransientFaultsDuringClassify) {
  HybridConfig cfg;
  cfg.fault_config.kind = faultsim::FaultKind::kTransient;
  cfg.fault_config.probability = 5e-6;
  cfg.fault_config.bit = -1;
  cfg.fault_seed = 5;
  HybridNetwork faulty(make_testnet(13), 0, cfg);
  HybridNetwork golden(make_testnet(13), 0, HybridConfig{});

  const Tensor img = stop_image();
  const HybridClassification rf = classify_once(faulty, img);
  const HybridClassification rg = classify_once(golden, img);

  ASSERT_TRUE(rf.conv1_report.ok) << rf.conv1_report.summary();
  EXPECT_GT(rf.conv1_report.detected_errors, 0u) << "test vacuous";
  EXPECT_EQ(rf.predicted_class, rg.predicted_class);
  EXPECT_NEAR(rf.confidence, rg.confidence, 1e-9);
}

TEST(HybridNetwork, PermanentFaultsYieldFailStopDecision) {
  const Tensor img = stop_image();
  HybridConfig probe_cfg;
  HybridNetwork probe(make_testnet(17), 0, probe_cfg);
  const int predicted = classify_once(probe, img).predicted_class;

  HybridConfig cfg;
  cfg.critical_classes = {predicted};
  cfg.fault_config.kind = faultsim::FaultKind::kPermanent;
  cfg.fault_config.probability = 1.0;
  cfg.fault_config.num_pes = 16;
  cfg.fault_config.bit = -1;
  HybridNetwork hybrid(make_testnet(17), 0, cfg);
  const HybridClassification r = classify_once(hybrid, img);

  EXPECT_FALSE(r.conv1_report.ok);
  EXPECT_TRUE(r.conv1_report.bucket_exhausted);
  if (r.predicted_class == predicted) {
    EXPECT_EQ(r.decision, Decision::kReliableExecutionFailed);
  }
  EXPECT_FALSE(r.reliable_positive());
}

TEST(HybridNetwork, FeatureMapQualifierSourceRuns) {
  HybridConfig cfg;
  cfg.qualifier.source = QualifierSource::kDependableFeatureMap;
  HybridNetwork hybrid(make_testnet(19), 0, cfg);
  const HybridClassification r = classify_once(hybrid, stop_image());
  // The bifurcated 61x61 feature map is coarse; the decision machinery
  // must still run and report reliable execution.
  EXPECT_TRUE(r.qualifier.reliable);
  EXPECT_TRUE(r.conv1_report.ok);
}

TEST(HybridNetwork, CostSplitShowsHybridSavings) {
  // The footprint argument holds for deep networks where conv1 is a small
  // share of the total; use the paper's own network geometry. cost_split
  // only propagates shapes, so full AlexNet is cheap here.
  HybridNetwork hybrid(
      nn::make_alexnet({.num_classes = 43, .seed = 1, .with_dropout = false}),
      nn::kAlexNetConv1, HybridConfig{});
  const auto split = hybrid.cost_split(Shape{3, 227, 227});
  EXPECT_GT(split.reliable_macs, 0u);
  EXPECT_GT(split.total_macs, split.reliable_macs)
      << "the reliable portion must be a strict subset of the total work";
  // The headline claim: reliable execution is confined to a small part
  // (conv1 + qualifier is ~10% of AlexNet's MACs).
  EXPECT_LT(static_cast<double>(split.reliable_macs),
            0.15 * static_cast<double>(split.total_macs));
}

TEST(HybridNetwork, ClassifyRejectsBatchedInput) {
  HybridNetwork hybrid(make_testnet(), 0, HybridConfig{});
  FaultSeedStream seeds = hybrid.seed_stream();
  EXPECT_THROW(
      static_cast<void>(hybrid.classify(Tensor(Shape{1, 3, 128, 128}), seeds)),
      std::invalid_argument);
  // A rejected classification must not consume a seed.
  EXPECT_EQ(seeds, hybrid.seed_stream());
}

TEST(ShapeQualifier, FailedReportNeverQualifies) {
  ShapeQualifier q;
  reliable::ExecutionReport failed;
  failed.ok = false;
  const Tensor fm(Shape{64, 64}, 1.0f);
  const auto verdict = q.qualify_feature_map(fm, failed);
  EXPECT_FALSE(verdict.reliable);
  EXPECT_FALSE(verdict.match);
  EXPECT_FALSE(verdict.qualifies());
}

TEST(ShapeQualifier, QualifiesStopSignImageThroughReliableSobel) {
  ShapeQualifier q;
  const auto exec = reliable::make_executor("dmr", nullptr);
  const auto verdict = q.qualify(data::render_stop_sign(160, 4.0), *exec);
  EXPECT_TRUE(verdict.reliable);
  EXPECT_TRUE(verdict.match)
      << "dist=" << verdict.shape.distance
      << " corners=" << verdict.shape.corners;
  EXPECT_TRUE(verdict.qualifies());
  EXPECT_GT(verdict.report.logical_ops, 0u);
}

}  // namespace
