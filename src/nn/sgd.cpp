#include "nn/sgd.hpp"

#include <stdexcept>

namespace hybridcnn::nn {

Sgd::Sgd(float learning_rate, float momentum)
    : lr_(learning_rate), momentum_(momentum) {
  if (learning_rate <= 0.0f) {
    throw std::invalid_argument("Sgd: learning rate must be positive");
  }
  if (momentum < 0.0f || momentum >= 1.0f) {
    throw std::invalid_argument("Sgd: momentum must be in [0, 1)");
  }
}

void Sgd::step(Layer& net) {
  for (const Param& p : net.params()) {
    if (p.value == nullptr || p.grad == nullptr) continue;
    tensor::Tensor& value = *p.value;
    const tensor::Tensor& grad = *p.grad;
    if (value.shape() != grad.shape()) {
      throw std::logic_error("Sgd: grad shape mismatch for " + p.name);
    }

    if (momentum_ == 0.0f) {
      for (std::size_t i = 0; i < value.count(); ++i) {
        value[i] -= lr_ * grad[i];
      }
      continue;
    }

    auto [it, inserted] = velocity_.try_emplace(p.value, value.shape());
    tensor::Tensor& vel = it->second;
    if (!inserted && vel.shape() != value.shape()) {
      throw std::logic_error("Sgd: velocity shape mismatch for " + p.name);
    }
    for (std::size_t i = 0; i < value.count(); ++i) {
      vel[i] = momentum_ * vel[i] - lr_ * grad[i];
      value[i] += vel[i];
    }
  }
}

void Sgd::zero_grad(Layer& net) { net.zero_grad(); }

}  // namespace hybridcnn::nn
