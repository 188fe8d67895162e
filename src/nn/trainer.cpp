#include "nn/trainer.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/loss.hpp"
#include "nn/sgd.hpp"
#include "runtime/compute_context.hpp"

namespace hybridcnn::nn {

namespace {

/// One training step's forward pass, micro-batched: splits the examples
/// [first, first + count) into up to `slots` contiguous micro-batches,
/// fans their training forwards across the pool (micro-batch m writes
/// context ctxs[m] and its own logits slot — disjoint everywhere), and
/// re-assembles full-batch logits/labels in example order. Returns the
/// per-micro-batch row offsets so backward can slice the loss gradient.
struct MicroForward {
  tensor::Tensor logits;            // [count, classes]
  std::vector<int> labels;          // count
  std::vector<std::size_t> offset;  // row offset per micro-batch
  std::vector<std::size_t> rows;    // row count per micro-batch
};

MicroForward micro_forward(Sequential& net,
                           const std::vector<data::Example>& examples,
                           std::size_t first, std::size_t count,
                           std::vector<FwdCache>& ctxs) {
  const std::size_t slots = std::min(ctxs.size(), count);
  MicroForward fwd;
  fwd.offset.resize(slots);
  fwd.rows.resize(slots);
  for (std::size_t m = 0; m < slots; ++m) {
    // Contiguous split; the remainder rows land on the trailing
    // micro-batches (count*m/slots rounds down).
    fwd.offset[m] = count * m / slots;
    fwd.rows[m] = count * (m + 1) / slots - fwd.offset[m];
  }

  std::vector<tensor::Tensor> part(slots);
  std::vector<std::vector<int>> part_labels(slots);
  runtime::ComputeContext::global().pool().parallel_for(
      0, slots, [&](std::size_t m) {
        data::Batch batch =
            data::make_batch(examples, first + fwd.offset[m], fwd.rows[m]);
        part_labels[m] = std::move(batch.labels);
        part[m] = net.forward_train(std::move(batch.images), ctxs[m]);
      });

  const std::size_t classes = part[0].shape()[1];
  fwd.logits = tensor::Tensor(tensor::Shape{count, classes});
  fwd.labels.reserve(count);
  for (std::size_t m = 0; m < slots; ++m) {
    std::memcpy(fwd.logits.data().data() + fwd.offset[m] * classes,
                part[m].data().data(), fwd.rows[m] * classes * sizeof(float));
    fwd.labels.insert(fwd.labels.end(), part_labels[m].begin(),
                      part_labels[m].end());
  }
  return fwd;
}

/// Backward over the micro-batch contexts, serially in micro-batch order:
/// parameter gradients accumulate in a fixed order regardless of how the
/// forwards were scheduled.
void micro_backward(Sequential& net, const MicroForward& fwd,
                    const tensor::Tensor& grad_logits,
                    std::vector<FwdCache>& ctxs) {
  const std::size_t classes = grad_logits.shape()[1];
  for (std::size_t m = 0; m < fwd.offset.size(); ++m) {
    tensor::Tensor g(tensor::Shape{fwd.rows[m], classes});
    std::memcpy(g.data().data(),
                grad_logits.data().data() + fwd.offset[m] * classes,
                fwd.rows[m] * classes * sizeof(float));
    net.backward(g, ctxs[m]);
  }
}

}  // namespace

std::vector<EpochStats> train(Sequential& net,
                              const std::vector<data::Example>& examples,
                              const TrainConfig& config) {
  if (examples.empty()) throw std::invalid_argument("train: no examples");
  Sgd sgd(config.learning_rate, config.momentum);
  net.set_training(true);

  // Cache contexts persist across steps (and epochs) so dropout layers
  // see one continuous mask stream per context. Context m draws RNG
  // stream m; the serial context's stream 0 replays the historical
  // layer-owned generator. (A second train() call builds fresh contexts,
  // so its mask streams restart from the seed rather than continuing.)
  const std::size_t slots = std::max<std::size_t>(1, config.micro_batch_slots);
  FwdCache serial_ctx;
  std::vector<FwdCache> micro_ctxs;
  if (slots > 1) {
    micro_ctxs.reserve(slots);
    for (std::size_t m = 0; m < slots; ++m) micro_ctxs.emplace_back(m);
  }

  std::vector<EpochStats> history;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    EpochStats stats;
    std::size_t batches = 0;
    std::size_t correct = 0;
    for (std::size_t first = 0; first < examples.size();
         first += config.batch_size) {
      const std::size_t count =
          std::min(config.batch_size, examples.size() - first);

      net.zero_grad();
      tensor::Tensor logits;
      std::vector<int> labels;
      LossResult loss;
      if (slots <= 1) {
        // Serial step: one full-batch forward/backward — the historical
        // trainer, op for op. The batch tensor is freshly stacked each
        // step; moving it into the chain lets caching layers keep it
        // without a deep copy.
        data::Batch batch = data::make_batch(examples, first, count);
        labels = std::move(batch.labels);
        logits = net.forward_train(std::move(batch.images), serial_ctx);
        loss = softmax_cross_entropy(logits, labels);
        net.backward(loss.grad_logits, serial_ctx);
      } else {
        MicroForward fwd =
            micro_forward(net, examples, first, count, micro_ctxs);
        loss = softmax_cross_entropy(fwd.logits, fwd.labels);
        micro_backward(net, fwd, loss.grad_logits, micro_ctxs);
        logits = std::move(fwd.logits);
        labels = std::move(fwd.labels);
      }
      sgd.step(net);
      if (config.after_step) config.after_step(net);

      stats.mean_loss += loss.loss;
      ++batches;
      const std::size_t classes = logits.shape()[1];
      for (std::size_t s = 0; s < count; ++s) {
        std::size_t best = 0;
        for (std::size_t j = 1; j < classes; ++j) {
          if (logits[s * classes + j] > logits[s * classes + best]) best = j;
        }
        if (static_cast<int>(best) == labels[s]) ++correct;
      }
    }
    stats.mean_loss /= static_cast<double>(batches);
    stats.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(examples.size());
    history.push_back(stats);
  }
  net.set_training(false);
  return history;
}

namespace {

/// Softmax probabilities of a [1, C] logits row.
std::vector<double> softmax_row(const tensor::Tensor& logits,
                                std::size_t row, std::size_t classes) {
  double mx = logits[row * classes];
  for (std::size_t j = 1; j < classes; ++j) {
    mx = std::max(mx, static_cast<double>(logits[row * classes + j]));
  }
  std::vector<double> p(classes);
  double denom = 0.0;
  for (std::size_t j = 0; j < classes; ++j) {
    p[j] = std::exp(static_cast<double>(logits[row * classes + j]) - mx);
    denom += p[j];
  }
  for (double& v : p) v /= denom;
  return p;
}

}  // namespace

Evaluation evaluate(Sequential& net,
                    const std::vector<data::Example>& examples,
                    std::size_t num_classes) {
  if (examples.empty()) throw std::invalid_argument("evaluate: no examples");
  net.set_training(false);

  Evaluation eval;
  eval.confusion.assign(num_classes,
                        std::vector<std::uint64_t>(num_classes, 0));
  std::size_t correct = 0;
  double confidence_sum = 0.0;

  runtime::Workspace& ws = runtime::thread_scratch();
  constexpr std::size_t kEvalBatch = 32;
  for (std::size_t first = 0; first < examples.size(); first += kEvalBatch) {
    const std::size_t count =
        std::min(kEvalBatch, examples.size() - first);
    const data::Batch batch = data::make_batch(examples, first, count);
    const tensor::Tensor logits = net.infer(batch.images, ws);
    const std::size_t classes = logits.shape()[1];
    if (classes != num_classes) {
      throw std::invalid_argument("evaluate: class count mismatch");
    }
    for (std::size_t s = 0; s < count; ++s) {
      const auto p = softmax_row(logits, s, classes);
      std::size_t best = 0;
      for (std::size_t j = 1; j < classes; ++j) {
        if (p[j] > p[best]) best = j;
      }
      const auto label = static_cast<std::size_t>(batch.labels[s]);
      ++eval.confusion[label][best];
      if (best == label) ++correct;
      confidence_sum += p[label];
    }
  }
  eval.accuracy =
      static_cast<double>(correct) / static_cast<double>(examples.size());
  eval.mean_true_class_confidence =
      confidence_sum / static_cast<double>(examples.size());
  return eval;
}

double mean_class_confidence(Sequential& net,
                             const std::vector<data::Example>& examples,
                             int target_class) {
  if (examples.empty()) {
    throw std::invalid_argument("mean_class_confidence: no examples");
  }
  net.set_training(false);
  double sum = 0.0;
  runtime::Workspace& ws = runtime::thread_scratch();
  constexpr std::size_t kEvalBatch = 32;
  for (std::size_t first = 0; first < examples.size(); first += kEvalBatch) {
    const std::size_t count =
        std::min(kEvalBatch, examples.size() - first);
    const data::Batch batch = data::make_batch(examples, first, count);
    const tensor::Tensor logits = net.infer(batch.images, ws);
    const std::size_t classes = logits.shape()[1];
    if (target_class < 0 ||
        static_cast<std::size_t>(target_class) >= classes) {
      throw std::invalid_argument("mean_class_confidence: bad class");
    }
    for (std::size_t s = 0; s < count; ++s) {
      sum += softmax_row(logits, s,
                         classes)[static_cast<std::size_t>(target_class)];
    }
  }
  return sum / static_cast<double>(examples.size());
}

}  // namespace hybridcnn::nn
