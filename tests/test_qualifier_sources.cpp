// Qualifier bifurcation sources: the paper's single x/y/x dependable
// filter vs the (x, y) pair extension vs full resolution.
#include <gtest/gtest.h>

#include <memory>

#include "core/hybrid_network.hpp"
#include "data/renderer.hpp"
#include "nn/conv2d.hpp"
#include "nn/filters.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/relu.hpp"

namespace {

using namespace hybridcnn;
using core::FaultSeedStream;
using core::HybridConfig;
using core::HybridNetwork;
using core::QualifierSource;

core::HybridClassification classify_once(const HybridNetwork& net,
                                         const tensor::Tensor& img) {
  FaultSeedStream seeds = net.seed_stream();
  return net.classify(img, seeds);
}

std::unique_ptr<nn::Sequential> make_net(std::size_t image,
                                         std::uint64_t seed = 3) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Flatten>();
  const std::size_t fm = (image - 7) / 2 + 1;
  net->emplace<nn::Linear>(8 * fm * fm, 5);
  nn::init_network(*net, seed);
  return net;
}

TEST(SobelAxisFilter, AllChannelsShareOneAxis) {
  const auto f = nn::sobel_axis_filter(3, 5, nn::SobelAxis::kY,
                                       /*normalized=*/false);
  const auto ky = nn::sobel_kernel(5, nn::SobelAxis::kY, false);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 25; ++i) {
      EXPECT_FLOAT_EQ(f[c * 25 + i], ky[i]);
    }
  }
}

TEST(SobelAxisFilter, Validation) {
  EXPECT_THROW(nn::sobel_axis_filter(0, 3, nn::SobelAxis::kX),
               std::invalid_argument);
}

TEST(QualifierSources, PairSourceInstallsTwoFrozenFilters) {
  HybridConfig cfg;
  cfg.qualifier.source = QualifierSource::kDependableFeatureMapPair;
  cfg.dependable_filter = 3;
  HybridNetwork hybrid(make_net(128), 0, cfg);
  auto bare = make_net(128);
  core::install_dependable_filters(*bare, 0, cfg);
  const nn::Sequential& installed = *bare;
  for (const nn::Sequential* net : {&hybrid.cnn(), &installed}) {
    const auto& conv1 = net->layer_as<nn::Conv2d>(0);
    EXPECT_TRUE(conv1.filter_frozen(3));
    EXPECT_TRUE(conv1.filter_frozen(4));
    EXPECT_EQ(conv1.filter(3),
              nn::sobel_axis_filter(3, 7, nn::SobelAxis::kX));
    EXPECT_EQ(conv1.filter(4),
              nn::sobel_axis_filter(3, 7, nn::SobelAxis::kY));
  }
}

TEST(QualifierSources, PairSourceValidatesFilterRange) {
  HybridConfig cfg;
  cfg.qualifier.source = QualifierSource::kDependableFeatureMapPair;
  cfg.dependable_filter = 7;  // pair needs 7 and 8, conv has 8 filters
  EXPECT_THROW(HybridNetwork(make_net(128), 0, cfg),
               std::invalid_argument);
}

TEST(QualifierSources, PairSourceQualifiesStopOnBifurcatedPath) {
  HybridConfig cfg;
  cfg.qualifier.source = QualifierSource::kDependableFeatureMapPair;
  HybridNetwork hybrid(make_net(160), 0, cfg);
  const auto r = classify_once(hybrid, data::render_stop_sign(160, 5.0));
  EXPECT_TRUE(r.qualifier.reliable);
  EXPECT_TRUE(r.qualifier.match)
      << "dist=" << r.qualifier.shape.distance
      << " corners=" << r.qualifier.shape.corners;
}

TEST(QualifierSources, PairSourceRejectsImpostorOnBifurcatedPath) {
  HybridConfig cfg;
  cfg.qualifier.source = QualifierSource::kDependableFeatureMapPair;
  HybridNetwork hybrid(make_net(160), 0, cfg);
  data::RenderParams p;
  p.cls = data::SignClass::kParking;
  p.size = 160;
  p.scale = 0.8;
  const auto r = classify_once(hybrid, data::render_sign(p));
  EXPECT_FALSE(r.qualifier.match);
}

TEST(QualifierSources, SingleMixedFilterIsConservativeNotUnsafe) {
  // The paper's x/y/x single filter often fails to confirm the octagon
  // on the bifurcated path (directional nulls) — but failure must always
  // land on the safe side: no impostor is ever accepted.
  HybridConfig cfg;
  cfg.qualifier.source = QualifierSource::kDependableFeatureMap;
  HybridNetwork hybrid(make_net(128), 0, cfg);
  for (const auto cls : {data::SignClass::kSpeedLimit,
                         data::SignClass::kYield,
                         data::SignClass::kParking}) {
    data::RenderParams p;
    p.cls = cls;
    p.size = 128;
    p.scale = 0.8;
    EXPECT_FALSE(classify_once(hybrid, data::render_sign(p)).qualifier.match)
        << data::class_name(cls);
  }
}

TEST(QualifierSources, MorphologyDoesNotBreakFullResolution) {
  // Regression guard for the dilate/erode pipeline: the full-resolution
  // source must keep qualifying across sizes (incl. small inputs).
  for (const std::size_t size : {64u, 96u, 227u}) {
    HybridConfig cfg;
    HybridNetwork hybrid(make_net(size, 5), 0, cfg);
    const auto r = classify_once(hybrid,
                                 data::render_stop_sign(size, 4.0));
    EXPECT_TRUE(r.qualifier.match) << "size " << size;
  }
}

}  // namespace
