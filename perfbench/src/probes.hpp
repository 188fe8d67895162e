// The traced layer probe: replays a workload's per-image pipeline through
// the layers' public functions — reliable conv1, the shape qualifier,
// each nn remainder layer — with a span around every call, and times the
// layers the workload's loop does not reach on its own (serve burst,
// fabric mini-campaign, checkpoint writes).
#pragma once

#include <map>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ProbeConfig {
  std::uint64_t seed = 1;
  std::string out_dir;
  bool serve_burst = false;    ///< loop gave no serve.* values
  bool fabric_campaign = false;  ///< loop gave no fabric.* values
};

/// Runs the probe and fills `layer` with per-layer values keyed by
/// metric name. A replay that disagrees with the library's own classify
/// path counts as a failed operation.
void run_layer_probe(const Workload& workload, const ProbeConfig& config,
                     Tracer& tracer, Result& result,
                     std::map<std::string, double>& layer);

}  // namespace perfbench
