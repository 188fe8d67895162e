// The paper's Section III.B training workflow, end to end:
//
//  1. pre-initialise a first-layer filter to the Sobel x/y/x filter;
//  2. train under three regimes (free / re-set after every batch /
//     hard-frozen) and observe the filter drift the paper reported with
//     TensorFlow's imperfect freezing;
//  3. verify accuracy is unaffected by pinning the dependable filter;
//  4. train a frozen-filter model, wrap it into the hybrid network and
//     classify.
#include <cstdio>
#include <utility>

#include "core/hybrid_network.hpp"
#include "data/dataset.hpp"
#include "nn/conv2d.hpp"
#include "nn/filters.hpp"
#include "nn/minicnn.hpp"
#include "nn/trainer.hpp"
#include "util/table.hpp"

int main() {
  using namespace hybridcnn;

  data::DatasetConfig dcfg;  // default 32x32 for MiniCNN
  const auto train_data = data::make_dataset(35, dcfg, 801);
  const auto test_data = data::make_dataset(20, dcfg, 802);

  util::Table table("Sobel pre-initialisation training regimes (MiniCNN)",
                    {"regime", "test accuracy", "filter max drift"});

  for (const char* regime : {"free", "reset", "hard-freeze"}) {
    auto net = nn::make_minicnn({.num_classes = data::kNumClasses,
                                 .conv1_filters = 12, .seed = 23});
    auto& conv1 = net->layer_as<nn::Conv2d>(nn::kMiniCnnConv1);
    const tensor::Tensor sobel = nn::sobel_filter(3, conv1.kernel());
    conv1.set_filter(0, sobel);

    nn::TrainConfig tc;
    tc.epochs = 6;
    tc.batch_size = 25;
    tc.learning_rate = 0.01f;
    tc.momentum = 0.9f;
    const std::string r = regime;
    if (r == "hard-freeze") {
      conv1.set_filter_frozen(0, true);
    } else if (r == "reset") {
      tc.after_step = [&sobel](nn::Sequential& n) {
        n.layer_as<nn::Conv2d>(nn::kMiniCnnConv1).set_filter(0, sobel);
      };
    }
    nn::train(*net, train_data, tc);

    const auto eval = nn::evaluate(*net, test_data, data::kNumClasses);
    table.row({regime, util::Table::fixed(eval.accuracy, 4),
               util::Table::fixed(conv1.filter(0).max_abs_diff(sobel), 6)});
  }
  table.print();

  std::printf("\nwrapping a freshly trained frozen-filter model into the "
              "hybrid network...\n");
  core::HybridConfig cfg;
  cfg.critical_classes = {static_cast<int>(data::SignClass::kStop)};
  // MiniCNN's 32x32 input is too coarse for the octagon qualifier, so the
  // hybrid uses the full-resolution qualifier source on the same frame —
  // exactly the trade-off DESIGN.md documents. The dependable filter is
  // installed and frozen before training, and the trained model is
  // wrapped afterwards.
  auto cnn = nn::make_minicnn({.num_classes = data::kNumClasses,
                               .conv1_filters = 12, .seed = 23});
  core::install_dependable_filters(*cnn, nn::kMiniCnnConv1, cfg);
  nn::TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 25;
  tc.learning_rate = 0.01f;
  nn::train(*cnn, train_data, tc);
  const core::HybridNetwork hybrid(std::move(cnn), nn::kMiniCnnConv1, cfg);

  data::RenderParams p;
  p.cls = data::SignClass::kStop;
  p.size = 32;
  p.scale = 0.85;
  core::FaultSeedStream seeds = hybrid.seed_stream();
  const auto result = hybrid.classify(data::render_sign(p), seeds);
  std::printf("stop render: predicted=%d confidence=%.3f decision=%s\n",
              result.predicted_class, result.confidence,
              core::decision_name(result.decision).c_str());
  std::printf("(at 32x32 the qualifier is conservative; decisions demote "
              "rather than risk an unverified stop positive)\n");
  return 0;
}
