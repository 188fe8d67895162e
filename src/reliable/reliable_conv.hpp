// Reliable convolution kernel: the paper's Algorithm 3.
//
// Calculates a 2-D convolution layer where every multiplication and
// accumulation is executed through an overloaded, qualified operator
// (Algorithm 1 or 2). The kernel "assumes that every operation fails
// unless explicitly asserted otherwise"; a failed operation is retried
// after a rollback to the last committed accumulator value (rollback
// distance = one operation) and feeds the leaky-bucket error counter.
// Exit conditions are success or failure: failure is reported once the
// bucket reaches its ceiling, i.e. the error is considered persistent.
//
// A layer-granular DMR variant (LayerDmrConv2d) is provided for the
// rollback-distance ablation: it re-executes the *entire* layer on
// mismatch, the strategy the paper argues against for deadline-bound
// systems.
#pragma once

#include <cstdint>
#include <memory>

#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "reliable/report.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::reliable {

namespace detail {
// Channel-lane repacked weights for the fault-free fast path; defined in
// reliable/static_dispatch.hpp (which includes this header).
struct WeightPack;
}  // namespace detail

/// Spatial parameters of a convolution.
struct ConvSpec {
  std::size_t stride = 1;
  std::size_t pad = 0;
};

/// Parameters of the reliability envelope around a kernel.
struct ReliabilityPolicy {
  std::uint32_t bucket_factor = 2;
  std::uint32_t bucket_ceiling = 4;
  /// Hard cap on retries of one operation, guarding forward progress under
  /// permanent faults even with large buckets.
  std::uint32_t max_retries_per_op = 16;
};

/// Output of a reliable kernel: the tensor plus the execution report.
struct ReliableResult {
  tensor::Tensor output;
  ExecutionReport report;
};

/// Reliably executed convolution layer (Algorithm 3 generalised from one
/// convolution operation to a full layer). Weights are OIHW, bias is O,
/// input and output are CHW (single image — the hybrid pipeline operates
/// per frame). Immutable: the fault-free fast path's channel-lane weight
/// pack is built once in the constructor, so a const layer is safe to
/// share across threads and copies share one pack.
class ReliableConv2d {
 public:
  /// Constructs from weights [out_c, in_c, kh, kw] and bias [out_c] and
  /// builds the channel-lane pack. Throws std::invalid_argument on
  /// inconsistent shapes.
  ReliableConv2d(tensor::Tensor weights, tensor::Tensor bias, ConvSpec spec,
                 ReliabilityPolicy policy = {});

  /// Executes the layer with qualified operations from `exec`.
  /// On bucket exhaustion the report has ok == false and the output is
  /// whatever had been committed up to the failed operation (explicitly
  /// bounded error propagation).
  ///
  /// Dispatches once per call on the executor's scheme and injector
  /// state: the three library schemes run a devirtualized inner kernel
  /// (with a raw-arithmetic fast path — SIMD channel lanes over the
  /// constructor-built pack — when the executor is
  /// guaranteed_fault_free()); custom executors fall back to
  /// forward_generic(). Outputs, reports, executor stats and injector
  /// state are bit-identical across the paths — the contract
  /// tests/test_static_dispatch.cpp and tests/test_simd_dispatch.cpp
  /// enforce.
  [[nodiscard]] ReliableResult forward(const tensor::Tensor& input,
                                       Executor& exec) const;

  /// The retained virtual-dispatch qualified path: every mul/add goes
  /// through Executor's virtual interface, per-op retry lambda and
  /// per-tap boundary checks. Semantically identical to forward(); kept
  /// as the oracle the specialized kernels are diffed against and as the
  /// path for out-of-library executor schemes.
  [[nodiscard]] ReliableResult forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const;

  /// Golden reference: plain non-instrumented convolution (fault-free
  /// scalar arithmetic, same per-output reduction order so results are
  /// bit-comparable), independent of the SIMD fast path. Output channels
  /// fan out across the global pool.
  [[nodiscard]] tensor::Tensor reference_forward(
      const tensor::Tensor& input) const;

  /// Output shape for a given input shape; validates channel count.
  [[nodiscard]] tensor::Shape output_shape(const tensor::Shape& in) const;

  [[nodiscard]] const tensor::Tensor& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const tensor::Tensor& bias() const noexcept { return bias_; }
  [[nodiscard]] const ConvSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const ReliabilityPolicy& policy() const noexcept {
    return policy_;
  }

  /// Logical multiply-accumulate count for one forward on `in` shape.
  [[nodiscard]] std::uint64_t mac_count(const tensor::Shape& in) const;

  /// The channel-lane repacked weights the fault-free fast path runs on.
  /// Engine-internal; exposed for layer-granular wrappers
  /// (LayerDmrConv2d runs its inner kernel's pack).
  [[nodiscard]] const detail::WeightPack& channel_pack() const noexcept {
    return *pack_;
  }

 private:
  tensor::Tensor weights_;  // OIHW
  tensor::Tensor bias_;     // O
  ConvSpec spec_;
  ReliabilityPolicy policy_;
  std::shared_ptr<const detail::WeightPack> pack_;  // never null
};

/// Layer-granular DMR: runs the whole (unqualified) layer twice through
/// the faulty compute unit and compares; on mismatch rolls back and
/// re-executes the entire layer. Used by the rollback-distance ablation.
class LayerDmrConv2d {
 public:
  LayerDmrConv2d(tensor::Tensor weights, tensor::Tensor bias, ConvSpec spec,
                 ReliabilityPolicy policy = {});

  /// `exec` supplies the faulty raw arithmetic via a SimplexExecutor-style
  /// single execution; redundancy is applied at layer granularity.
  /// Scheme-dispatched like ReliableConv2d::forward; the two attempt
  /// buffers are allocated once and reused across retries, and the
  /// agreeing attempt is moved (not copied) into the result.
  [[nodiscard]] ReliableResult forward(const tensor::Tensor& input,
                                       Executor& exec) const;

  /// Virtual-dispatch oracle path (same buffer-reuse shape, raw ops go
  /// through Executor's virtual mul/add).
  [[nodiscard]] ReliableResult forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const;

 private:
  ReliableConv2d inner_;
};

}  // namespace hybridcnn::reliable
