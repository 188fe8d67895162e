// Stop-sign pipeline: the paper's motivating scenario end to end.
//
// A CNN is trained on the synthetic sign dataset, wrapped into a
// HybridNetwork, and then evaluated on fresh renders of every class. The
// point demonstrated: safety-critical "stop" positives are only reported
// when the dependable octagon evidence confirms them, so a misclassified
// circle can never become a reliable stop — the false-positive protection
// of Figure 1.
#include <cstdio>
#include <memory>
#include <utility>

#include "core/hybrid_network.hpp"
#include "data/dataset.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "nn/trainer.hpp"
#include "util/table.hpp"

namespace {

using namespace hybridcnn;

std::unique_ptr<nn::Sequential> make_net() {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 96 -> 45
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);  // 45 -> 22
  net->emplace<nn::Conv2d>(8, 16, 3, 1, 1);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(2, 2);  // 22 -> 11
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(16 * 11 * 11, 5);
  nn::init_network(*net, 9);
  return net;
}

}  // namespace

int main() {
  using data::SignClass;

  core::HybridConfig config;
  config.critical_classes = {static_cast<int>(SignClass::kStop)};
  auto cnn = make_net();
  core::install_dependable_filters(*cnn, 0, config);

  std::printf("training the CNN branch (dependable Sobel filter frozen)...\n");
  data::DatasetConfig dcfg;
  dcfg.image_size = 96;
  const auto train_data = data::make_dataset(30, dcfg, 901);
  nn::TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 25;
  tc.learning_rate = 0.01f;
  const auto history = nn::train(*cnn, train_data, tc);
  std::printf("final epoch: loss=%.3f train-accuracy=%.3f\n",
              history.back().mean_loss, history.back().train_accuracy);
  const core::HybridNetwork hybrid(std::move(cnn), 0, config);

  util::Table table("hybrid decisions on fresh renders",
                    {"true class", "predicted", "confidence", "qualifier",
                     "decision"});
  std::size_t reliable_stop_positives = 0;
  std::size_t false_reliable_positives = 0;
  core::FaultSeedStream seeds = hybrid.seed_stream();

  for (const SignClass cls : data::all_classes()) {
    for (int variant = 0; variant < 3; ++variant) {
      data::RenderParams p;
      p.cls = cls;
      p.size = 96;
      p.rotation = (variant - 1) * 0.12;
      p.scale = 0.72 + 0.07 * variant;
      p.noise_seed = 7000 + static_cast<std::uint64_t>(variant);
      const auto r = hybrid.classify(data::render_sign(p), seeds);

      if (r.reliable_positive()) {
        if (cls == SignClass::kStop) {
          ++reliable_stop_positives;
        } else {
          ++false_reliable_positives;
        }
      }
      table.row({data::class_name(cls),
                 data::class_name(static_cast<SignClass>(r.predicted_class)),
                 util::Table::fixed(r.confidence, 3),
                 r.qualifier.match ? "octagon" : "-",
                 core::decision_name(r.decision)});
    }
  }
  table.print();

  std::printf("\nreliable stop positives on true stops : %zu / 3\n",
              reliable_stop_positives);
  std::printf("reliable stop positives on non-stops  : %zu  "
              "(the guarantee: always 0)\n",
              false_reliable_positives);
  return false_reliable_positives == 0 ? 0 : 1;
}
