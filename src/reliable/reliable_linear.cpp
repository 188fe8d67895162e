#include "reliable/reliable_linear.hpp"

#include <optional>
#include <stdexcept>

#include "reliable/checkpoint.hpp"
#include "reliable/static_dispatch.hpp"

namespace hybridcnn::reliable {

namespace {

void validate_linear_input(const tensor::Tensor& input, std::size_t in_n) {
  if (input.shape().rank() != 1 || input.shape()[0] != in_n) {
    throw std::invalid_argument("ReliableLinear: input must be [" +
                                std::to_string(in_n) + "]");
  }
}

}  // namespace

ReliableLinear::ReliableLinear(tensor::Tensor weights, tensor::Tensor bias,
                               ReliabilityPolicy policy)
    : weights_(std::move(weights)),
      bias_(std::move(bias)),
      policy_(policy) {
  if (weights_.shape().rank() != 2) {
    throw std::invalid_argument("ReliableLinear: weights must be [out, in]");
  }
  if (bias_.shape().rank() != 1 || bias_.shape()[0] != weights_.shape()[0]) {
    throw std::invalid_argument("ReliableLinear: bias must be [out]");
  }
  pack_ = std::make_shared<const detail::LinearWeightPack>(
      detail::build_linear_pack(weights_.shape()[0], weights_.shape()[1],
                                weights_.data().data(), bias_.data().data()));
}

ReliableResult ReliableLinear::forward(const tensor::Tensor& input,
                                       Executor& exec) const {
  const Scheme scheme = exec.scheme_kind();
  if (scheme == Scheme::kCustom) return forward_generic(input, exec);

  const std::size_t out_n = weights_.shape()[0];
  const std::size_t in_n = weights_.shape()[1];
  validate_linear_input(input, in_n);

  ReliableResult result{tensor::Tensor(tensor::Shape{out_n}), {}};
  result.report.stage = "reliable_linear";
  result.report.scheme = exec.name();

  const float* in = input.data().data();
  const float* wgt = weights_.data().data();
  const float* b = bias_.data().data();

  if (exec.guaranteed_fault_free()) {
    detail::linear_raw_compute(*pack_, in, result.output.data().data());
    const std::uint64_t ops = 2 * static_cast<std::uint64_t>(out_n) * in_n;
    result.report.logical_ops = ops;
    result.report.commits = ops;
    exec.credit_fault_free_ops(ops);
    return result;
  }

  detail::with_concrete_executor(scheme, exec, [&](auto& concrete) {
    detail::linear_forward_qualified(out_n, in_n, in, wgt, b, policy_,
                                     concrete, result);
  });
  return result;
}

ReliableResult ReliableLinear::forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const {
  const std::size_t out_n = weights_.shape()[0];
  const std::size_t in_n = weights_.shape()[1];
  validate_linear_input(input, in_n);

  ReliableResult result{tensor::Tensor(tensor::Shape{out_n}), {}};
  ExecutionReport& report = result.report;
  report.stage = "reliable_linear";
  report.scheme = exec.name();

  LeakyBucket bucket(policy_.bucket_factor, policy_.bucket_ceiling);
  std::int64_t op_index = 0;

  const auto run_qualified =
      [&](const auto& op, ScalarCheckpoint& cp) -> std::optional<float> {
    ++report.logical_ops;
    for (std::uint32_t attempt = 0;; ++attempt) {
      const Qualified<float> q = op();
      if (q.ok) {
        bucket.record_success();
        if (attempt > 0) ++report.corrected_errors;
        cp.commit(q.value);
        ++report.commits;
        return q.value;
      }
      ++report.detected_errors;
      (void)cp.rollback();
      ++report.rollbacks;
      if (bucket.record_error()) return std::nullopt;
      if (attempt + 1 >= policy_.max_retries_per_op) return std::nullopt;
      ++report.retries;
    }
  };

  for (std::size_t o = 0; o < out_n; ++o) {
    ScalarCheckpoint acc(bias_[o]);
    for (std::size_t i = 0; i < in_n; ++i) {
      const float x = input[i];
      const float w = weights_[o * in_n + i];

      ScalarCheckpoint prod(0.0f);
      const auto p = run_qualified([&] { return exec.mul(x, w); }, prod);
      ++op_index;
      if (!p) {
        report.ok = false;
        report.failed_op_index = op_index - 1;
        report.bucket_peak = bucket.peak();
        report.bucket_exhausted = bucket.exhausted();
        result.output[o] = acc.value();
        return result;
      }

      const float before = acc.value();
      const auto s =
          run_qualified([&] { return exec.add(before, *p); }, acc);
      ++op_index;
      if (!s) {
        report.ok = false;
        report.failed_op_index = op_index - 1;
        report.bucket_peak = bucket.peak();
        report.bucket_exhausted = bucket.exhausted();
        result.output[o] = acc.value();
        return result;
      }
    }
    result.output[o] = acc.value();
  }

  report.bucket_peak = bucket.peak();
  report.bucket_exhausted = bucket.exhausted();
  return result;
}

tensor::Tensor ReliableLinear::reference_forward(
    const tensor::Tensor& input) const {
  const std::size_t out_n = weights_.shape()[0];
  const std::size_t in_n = weights_.shape()[1];
  validate_linear_input(input, in_n);
  tensor::Tensor out(tensor::Shape{out_n});
  detail::linear_raw_compute_scalar(out_n, in_n, input.data().data(),
                                    weights_.data().data(),
                                    bias_.data().data(), out.data().data());
  return out;
}

}  // namespace hybridcnn::reliable
