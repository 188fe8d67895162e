// Reliably executed fully-connected layer.
//
// The paper limits its evaluation to one convolution layer but names the
// harnessing of subsequent layers as the direction of further work
// (Section V). ReliableLinear extends Algorithm 3's qualified
// multiply-accumulate scheme to dense layers so hybrid partitions can
// place the reliability boundary after any layer.
#pragma once

#include <memory>

#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "reliable/reliable_conv.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::reliable {

namespace detail {
// Neuron-lane repacked weights for the dense fault-free fast path;
// defined in reliable/static_dispatch.hpp.
struct LinearWeightPack;
}  // namespace detail

/// Qualified dense layer: y = W x + b with every scalar operation executed
/// through an overloaded executor, single-op rollback and a leaky bucket.
/// Immutable like ReliableConv2d: the neuron-lane pack is built once in
/// the constructor.
class ReliableLinear {
 public:
  /// Weights [out, in], bias [out]. Throws std::invalid_argument on
  /// inconsistent shapes.
  ReliableLinear(tensor::Tensor weights, tensor::Tensor bias,
                 ReliabilityPolicy policy = {});

  /// Input must be rank-1 of length `in`. Same contract as
  /// ReliableConv2d::forward, including the once-per-call scheme dispatch
  /// onto devirtualized kernels, the guaranteed-fault-free fast path
  /// (vectorized across output neurons where the target allows).
  [[nodiscard]] ReliableResult forward(const tensor::Tensor& input,
                                       Executor& exec) const;

  /// Retained virtual-dispatch qualified path (oracle / custom-scheme
  /// fallback); see ReliableConv2d::forward_generic.
  [[nodiscard]] ReliableResult forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const;

  /// Golden reference with identical operation order: the scalar
  /// reduction, independent of the neuron-lane fast path.
  [[nodiscard]] tensor::Tensor reference_forward(
      const tensor::Tensor& input) const;

  [[nodiscard]] const tensor::Tensor& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const tensor::Tensor& bias() const noexcept { return bias_; }

  /// Neuron-lane repacked weights the fault-free fast path runs on; see
  /// ReliableConv2d::channel_pack().
  [[nodiscard]] const detail::LinearWeightPack& neuron_pack() const noexcept {
    return *pack_;
  }

 private:
  tensor::Tensor weights_;  // [out, in]
  tensor::Tensor bias_;     // [out]
  ReliabilityPolicy policy_;
  std::shared_ptr<const detail::LinearWeightPack> pack_;  // never null
};

}  // namespace hybridcnn::reliable
