// Weight serialization: round-trip fidelity and artefact validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <unistd.h>
#include <vector>

#include "data/dataset.hpp"
#include "nn/conv2d.hpp"
#include "nn/minicnn.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace hybridcnn;
using nn::load_weights;
using nn::save_weights;

const char* kPath = "/tmp/hybridcnn_weights_test.bin";

/// Deep copy of every parameter, for asserting a rejected load left the
/// network untouched.
std::vector<tensor::Tensor> snapshot(nn::Sequential& net) {
  std::vector<tensor::Tensor> values;
  for (const nn::Param& p : net.params()) values.push_back(*p.value);
  return values;
}

void expect_unchanged(nn::Sequential& net,
                      const std::vector<tensor::Tensor>& before) {
  const auto params = net.params();
  ASSERT_EQ(params.size(), before.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(tensor::bit_identical(*params[i].value, before[i]))
        << params[i].name << " was modified by a rejected load";
  }
}

void truncate_to_half(const char* path) {
  std::FILE* f = std::fopen(path, "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size / 2), 0);
  std::fclose(f);
}

TEST(Serialize, RoundTripIsBitExact) {
  auto a = nn::make_minicnn({.num_classes = 5, .conv1_filters = 8,
                             .seed = 3});
  save_weights(*a, kPath);

  auto b = nn::make_minicnn({.num_classes = 5, .conv1_filters = 8,
                             .seed = 99});  // different init
  load_weights(*b, kPath);

  const auto pa = a->params();
  const auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(*pa[i].value, *pb[i].value) << pa[i].name;
  }
  std::remove(kPath);
}

TEST(Serialize, TrainedModelKeepsBehaviour) {
  auto net = nn::make_minicnn({.num_classes = data::kNumClasses,
                               .conv1_filters = 8, .seed = 5});
  const auto train_data = data::make_dataset(15, {}, 701);
  nn::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 15;
  tc.learning_rate = 0.01f;
  nn::train(*net, train_data, tc);

  const auto test_data = data::make_dataset(10, {}, 702);
  const auto before = nn::evaluate(*net, test_data, data::kNumClasses);
  save_weights(*net, kPath);

  auto restored = nn::make_minicnn({.num_classes = data::kNumClasses,
                                    .conv1_filters = 8, .seed = 77});
  load_weights(*restored, kPath);
  const auto after = nn::evaluate(*restored, test_data, data::kNumClasses);
  EXPECT_DOUBLE_EQ(after.accuracy, before.accuracy);
  EXPECT_DOUBLE_EQ(after.mean_true_class_confidence,
                   before.mean_true_class_confidence);
  std::remove(kPath);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  auto a = nn::make_minicnn({.num_classes = 5, .conv1_filters = 8,
                             .seed = 1});
  save_weights(*a, kPath);

  // Different filter count: shapes differ.
  auto b = nn::make_minicnn({.num_classes = 5, .conv1_filters = 16,
                             .seed = 1});
  EXPECT_THROW(load_weights(*b, kPath), std::invalid_argument);
  std::remove(kPath);
}

TEST(Serialize, RejectsTruncatedFile) {
  auto net = nn::make_minicnn({.num_classes = 5, .conv1_filters = 8,
                               .seed = 1});
  save_weights(*net, kPath);
  truncate_to_half(kPath);
  EXPECT_THROW(load_weights(*net, kPath), std::runtime_error);
  std::remove(kPath);
}

TEST(Serialize, TruncatedArtefactLeavesNetworkUnchanged) {
  auto a = nn::make_minicnn({.num_classes = 5, .conv1_filters = 8,
                             .seed = 3});
  save_weights(*a, kPath);
  truncate_to_half(kPath);

  // Same architecture, different init: every parameter before the cut
  // would differ if the load were applied piecemeal.
  auto b = nn::make_minicnn({.num_classes = 5, .conv1_filters = 8,
                             .seed = 99});
  const auto before = snapshot(*b);
  EXPECT_THROW(load_weights(*b, kPath), std::runtime_error);
  expect_unchanged(*b, before);
  std::remove(kPath);
}

TEST(Serialize, LateShapeMismatchLeavesNetworkUnchanged) {
  // Only the final Linear differs (5 vs 6 classes), so every earlier
  // parameter validates before the mismatch is found.
  auto a = nn::make_minicnn({.num_classes = 5, .conv1_filters = 8,
                             .seed = 3});
  save_weights(*a, kPath);

  auto b = nn::make_minicnn({.num_classes = 6, .conv1_filters = 8,
                             .seed = 99});
  const auto before = snapshot(*b);
  EXPECT_THROW(load_weights(*b, kPath), std::invalid_argument);
  expect_unchanged(*b, before);
  std::remove(kPath);
}

TEST(Serialize, OversizedNameLengthIsRejected) {
  auto net = nn::make_minicnn({});
  const auto params = net->params();
  {
    // A valid header followed by a 0xFFFFFFFF name length: rejected
    // before any allocation is sized from it.
    std::FILE* f = std::fopen(kPath, "wb");
    ASSERT_NE(f, nullptr);
    const std::uint32_t words[] = {0x48594257u, 1u,
                                   static_cast<std::uint32_t>(params.size()),
                                   0xFFFFFFFFu};
    std::fwrite(words, sizeof(std::uint32_t), 4, f);
    std::fclose(f);
  }
  const auto before = snapshot(*net);
  EXPECT_THROW(load_weights(*net, kPath), std::invalid_argument);
  expect_unchanged(*net, before);
  std::remove(kPath);
}

TEST(Serialize, RejectsGarbageMagic) {
  {
    std::FILE* f = std::fopen(kPath, "wb");
    ASSERT_NE(f, nullptr);
    const char junk[16] = "not-a-weights-f";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  auto net = nn::make_minicnn({});
  EXPECT_THROW(load_weights(*net, kPath), std::runtime_error);
  std::remove(kPath);
}

TEST(Serialize, MissingFileThrows) {
  auto net = nn::make_minicnn({});
  EXPECT_THROW(load_weights(*net, "/tmp/missing_weights_4711.bin"),
               std::runtime_error);
  EXPECT_THROW(save_weights(*net, "/nonexistent-dir/w.bin"),
               std::runtime_error);
}

}  // namespace
