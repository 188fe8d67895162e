#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/gemm.hpp"

namespace hybridcnn::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weights_(tensor::Shape{out_features, in_features}),
      bias_(tensor::Shape{out_features}),
      grad_weights_(tensor::Shape{out_features, in_features}),
      grad_bias_(tensor::Shape{out_features}) {}

void Linear::init_he(util::Rng& rng) {
  weights_.fill_normal(
      rng, 0.0f, static_cast<float>(std::sqrt(2.0 / static_cast<double>(in_))));
  bias_.fill(0.0f);
}

tensor::Tensor Linear::infer(const tensor::Tensor& input,
                             runtime::Workspace& /*ws*/) const {
  const auto& in = input.shape();
  if (in.rank() != 2 || in[1] != in_) {
    throw std::invalid_argument("Linear: expected [N, " +
                                std::to_string(in_) + "], got " + in.str());
  }
  const std::size_t n = in[0];
  tensor::Tensor out(tensor::Shape{n, out_});
  // out[n, out] += x[n, in] * W^T: W is stored [out, in] and streamed in
  // place, and each output row is bit-identical to a [1, in] call.
  gemm_a_bt(n, in_, out_, input.data().data(), weights_.data().data(),
            out.data().data());
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t o = 0; o < out_; ++o) out[s * out_ + o] += bias_[o];
  }
  return out;
}

tensor::Tensor Linear::forward_train(const tensor::Tensor& input,
                                     LayerCache& cache) {
  tensor::Tensor out =
      infer(input, runtime::ComputeContext::global().workspace());
  cache.input = input;
  return out;
}

tensor::Tensor Linear::forward_train(tensor::Tensor&& input,
                                     LayerCache& cache) {
  tensor::Tensor out =
      infer(input, runtime::ComputeContext::global().workspace());
  cache.input = std::move(input);
  return out;
}

tensor::Tensor Linear::backward(const tensor::Tensor& grad_output,
                                LayerCache& cache) {
  const tensor::Tensor& cached_input = cache.input;
  const auto& in = cached_input.shape();
  if (in.rank() != 2) {
    throw std::logic_error("Linear::backward before forward_train");
  }
  const std::size_t n = in[0];
  if (grad_output.shape() != tensor::Shape{n, out_}) {
    throw std::invalid_argument("Linear::backward: grad shape mismatch");
  }

  // dW[out, in] += dOut^T[out, n] * x[n, in]
  gemm_at_b(out_, n, in_, grad_output.data().data(),
            cached_input.data().data(), grad_weights_.data().data());
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t o = 0; o < out_; ++o) {
      grad_bias_[o] += grad_output[s * out_ + o];
    }
  }

  // dx[n, in] = dOut[n, out] * W[out, in]
  tensor::Tensor grad_input(in);
  gemm_acc(n, out_, in_, grad_output.data().data(), weights_.data().data(),
           grad_input.data().data());
  return grad_input;
}

std::vector<Param> Linear::params() {
  return {{&weights_, &grad_weights_, "linear.weights"},
          {&bias_, &grad_bias_, "linear.bias"}};
}

}  // namespace hybridcnn::nn
