// Stochastic gradient descent with classical momentum.
#pragma once

#include <unordered_map>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::nn {

/// SGD over a layer's (or network's) parameters. Velocity buffers are
/// keyed by parameter identity, so filter freezing implemented as
/// zeroed gradients keeps frozen filters perfectly stationary (their
/// velocity also decays to zero).
class Sgd {
 public:
  explicit Sgd(float learning_rate, float momentum = 0.0f);

  /// Applies one update step to every parameter of `net` using the
  /// gradients accumulated since the last zero_grad().
  void step(Layer& net);

  /// Clears gradients of every parameter of `net`.
  static void zero_grad(Layer& net);

  [[nodiscard]] float learning_rate() const noexcept { return lr_; }
  void set_learning_rate(float lr) noexcept { lr_ = lr; }

 private:
  float lr_;
  float momentum_;
  std::unordered_map<const tensor::Tensor*, tensor::Tensor> velocity_;
};

}  // namespace hybridcnn::nn
