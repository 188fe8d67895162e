// Mini-batch SGD training loop and evaluation utilities shared by the
// tests, benches and examples (the library's stand-in for the paper's
// TensorFlow training workflow, including the per-batch filter re-set
// regime the paper observed).
//
// The loop owns its forward-cache contexts (nn::FwdCache): one for the
// serial path, one per micro-batch slot when `micro_batch_slots > 1`. In
// the micro-batched regime each step splits its batch into contiguous
// micro-batches whose training forwards fan out across the global thread
// pool (each writing its own context), the loss is computed over the
// re-assembled full-batch logits, and the backwards run serially in
// micro-batch order so parameter gradients accumulate in a fixed order —
// the training trajectory is bit-identical at every thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"

namespace hybridcnn::nn {

/// Training hyperparameters.
struct TrainConfig {
  std::size_t epochs = 5;
  std::size_t batch_size = 16;
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  /// Concurrent micro-batch contexts per step. 1 (default) runs the
  /// classic serial step — one full-batch forward/backward — and is
  /// bit-identical to the historical trainer. Values > 1 fan the forward
  /// across the pool as up to that many micro-batches; deterministic for
  /// every thread count, but a different (equally valid) float reduction
  /// order than the serial step, and dropout layers draw per-context
  /// mask streams.
  std::size_t micro_batch_slots = 1;
  /// Invoked after every optimizer step; the paper's "re-set after every
  /// batch" filter regime is implemented by restoring a filter here.
  std::function<void(Sequential&)> after_step;
};

/// Per-epoch training record.
struct EpochStats {
  double mean_loss = 0.0;
  double train_accuracy = 0.0;
};

/// Trains `net` on `examples` in place; returns per-epoch statistics.
std::vector<EpochStats> train(Sequential& net,
                              const std::vector<data::Example>& examples,
                              const TrainConfig& config);

/// Classification evaluation results.
struct Evaluation {
  double accuracy = 0.0;
  std::vector<std::vector<std::uint64_t>> confusion;  // [true][predicted]
  /// Mean softmax confidence assigned to the true class.
  double mean_true_class_confidence = 0.0;
};

/// Evaluates `net` (logits output) on `examples` over `num_classes`.
/// Runs the const inference path; `net` is only non-const to reset its
/// training flag.
Evaluation evaluate(Sequential& net,
                    const std::vector<data::Example>& examples,
                    std::size_t num_classes);

/// Mean softmax probability that `net` assigns to `target_class` over
/// `examples` (the Fig. 4 "confidence value" metric).
double mean_class_confidence(Sequential& net,
                             const std::vector<data::Example>& examples,
                             int target_class);

}  // namespace hybridcnn::nn
