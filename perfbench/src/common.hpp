// Shared plumbing of the perfbench executable: run options, the result
// record, statistics, the seeded input generator and the model set-up.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hybrid_network.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;    ///< where result and trace files go
  std::string source_id;  ///< git sha or source-tree hash (from run.py)
};

/// What one run prints: the metrics of its mode plus the operation
/// accounting. `fail` counts a failed operation and says why on stderr.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why, std::uint64_t count = 1);
  void attempt(std::uint64_t count) { attempted_ += count; }
  /// Informational value: written to the result file, not to the metrics.
  void note(const std::string& key, double value) { notes_[key] = value; }
  /// Informational sample series (latencies), written to the result file.
  void series(const std::string& key, std::vector<double> values) {
    series_[key] = std::move(values);
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string notes_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, double> notes_;
  std::map<std::string, std::vector<double>> series_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Quantile by linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Host block: ISA tier, cores, pool threads, compiler, flags, source id
/// and the reliability / threading environment knobs, as a JSON object.
[[nodiscard]] std::string host_json(const Options& opt, std::size_t threads);

/// Writes `text` to `path`; a failure is reported, not fatal.
void write_text(const std::string& path, const std::string& text);

// ------------------------------------------------------------- inputs

/// Deterministic per-workload random stream derived from the run seed.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t salt);

/// `count` rendered 227 px signs cycling through all five classes, with
/// rotation, scale, offset, brightness and noise drawn from `seed`.
[[nodiscard]] std::vector<hybridcnn::tensor::Tensor> make_signs(
    std::uint64_t seed, std::size_t count);

/// Image in the [1, C, H, W] layout the plain Sequential path takes.
[[nodiscard]] hybridcnn::tensor::Tensor batched(
    const hybridcnn::tensor::Tensor& chw);

// ------------------------------------------------------------- set-up

/// Fault environment of the fault_campaign workload: transient
/// result-bit upsets at a fixed per-operation rate.
[[nodiscard]] hybridcnn::faultsim::FaultConfig campaign_faults();

/// AlexNet-227 (five sign classes, fixed weights) wrapped as a DMR
/// HybridNetwork under `faults`.
struct Model {
  std::shared_ptr<const hybridcnn::core::HybridNetwork> net;
  double alexnet_build_s = 0.0;  ///< make_alexnet alone
};
[[nodiscard]] Model build_model(const hybridcnn::faultsim::FaultConfig& faults,
                                std::uint64_t fault_seed);

/// Bit-for-bit equality of two classifications: prediction, confidence
/// bits, decision, qualifier verdict and conv1 execution report.
[[nodiscard]] bool identical(const hybridcnn::core::HybridClassification& a,
                             const hybridcnn::core::HybridClassification& b);

}  // namespace perfbench
