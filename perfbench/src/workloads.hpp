// The three benchmark workloads. Each one builds its model (timed as
// set-up), runs a measured loop for a fixed time, and checks the loop's
// outputs outside the timed region.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one measured loop produced.
struct LoopStats {
  std::vector<double> latency_ms;  ///< one sample per operation
  double elapsed_s = 0.0;          ///< wall time of the whole loop
  std::uint64_t completed = 0;     ///< operations that finished
  /// Loop-level values that feed per-layer metrics (serve.*, fabric.*,
  /// campaign.*), keyed by metric name.
  std::map<std::string, double> layer;
};

/// Frame period of the serve_cameras cameras: about twice the batch-of-8
/// compute time on a 2-thread pool, so the service runs at about half of
/// its capacity. A frame still unfinished one period after it was due
/// misses its deadline.
inline constexpr double kServePeriodMs = 1350.0;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Pool size of the global runtime context for this workload.
  [[nodiscard]] virtual std::size_t pool_threads() const = 0;

  /// Builds AlexNet and the HybridNetwork and starts the service or plans
  /// the fabric; replaces whatever an earlier call built. Timed.
  virtual void setup() = 0;

  /// Untimed preparation after set-up (reference results, warm-up).
  virtual void prepare() {}

  /// Runs the measured loop for about `seconds`. Operations that fail
  /// are counted into `result`; outputs are kept for check().
  virtual LoopStats run(double seconds, Tracer& tracer, Result& result) = 0;

  /// Verifies the last loop's outputs; every mismatch is a failed op.
  virtual void check(Result& result) = 0;

  /// Inputs of the traced layer probe (probes.hpp).
  [[nodiscard]] virtual const hybridcnn::core::HybridNetwork& network()
      const = 0;
  /// Fault-free network with the same weights (network() itself unless
  /// the workload injects faults).
  [[nodiscard]] virtual std::shared_ptr<const hybridcnn::core::HybridNetwork>
  clean_network() const = 0;
  [[nodiscard]] virtual const std::vector<hybridcnn::tensor::Tensor>& images()
      const = 0;
  [[nodiscard]] virtual bool injects_faults() const { return false; }

  double alexnet_build_s = 0.0;  ///< of the last setup()
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opt);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
