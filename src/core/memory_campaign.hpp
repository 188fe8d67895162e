// Memory-fault campaign over the hybrid classify path.
//
// The paper's failure model names "data corruption of the weights and
// input data" alongside compute-unit upsets (Section II). This surface
// evaluates that axis end to end: each run corrupts the stored conv1
// parameters and/or the input image under a MemoryFaultModel, optionally
// routes the weights through SEC-DED protected storage with a scrub
// cadence, classifies through the unmodified hybrid dataflow
// (HybridNetwork::classify_with_conv1) and buckets the observable outcome
// — intact / ECC-corrected / ECC-uncorrectable (fail-stop) / caught by
// the hybrid evidence chain / silent corruption. Outcomes depend only on
// the decision, prediction and qualifier verdict.
//
// Determinism contract: run i derives ALL stochastic state (memory-fault
// Rng, compute-fault injector seed) from `seeds.peek() + i` alone, runs
// fan across the thread pool, and outcomes reduce in run-index order —
// so the returned summary is bit-identical at every thread count
// (tests/test_memory_campaign.cpp locks 1/2/8 threads).
#pragma once

#include <cstddef>

#include "core/fault_seed_stream.hpp"
#include "core/hybrid_network.hpp"
#include "faultsim/memory_faults.hpp"
#include "runtime/compute_context.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::core {

/// Configuration of one memory-fault campaign.
struct MemoryCampaignConfig {
  /// What to corrupt, and how much, per exposure epoch.
  faultsim::MemoryFaultModel model{};

  /// Route the conv1 parameters through SEC-DED protected storage: upsets
  /// land in the protected words and a scrub pass runs before the weights
  /// are used. ECC covers the stored model only — input corruption (a
  /// sensor-side effect) is never ECC-protected.
  bool ecc = false;

  /// Scrub cadence in runs: run i accumulates `(i % scrub_interval) + 1`
  /// exposure epochs of injection since its last scrub, so a larger
  /// interval models rarer scrubbing (more accumulated upsets per check)
  /// while keeping every run a pure function of its index. Must be >= 1.
  std::size_t scrub_interval = 1;
};

/// Runs memory-fault campaigns against one HybridNetwork. The network's
/// reliable_conv1() is the pristine kernel; each run builds its own
/// corrupted kernel from a copy of its parameters, so the network itself
/// is never mutated and campaigns may share it with concurrent classify
/// traffic.
class MemoryFaultCampaign {
 public:
  /// `net` must outlive the campaign. Throws if `config.scrub_interval`
  /// is zero.
  MemoryFaultCampaign(const HybridNetwork& net, MemoryCampaignConfig config);

  /// Executes `runs` independent corrupted classifications of `image`
  /// across the pool, consuming `runs` seeds from `seeds` (run i uses
  /// `seeds.peek() + i`, the classify_repeat contract). The golden
  /// reference is the same-seed classification with pristine weights —
  /// computed once when the network's compute-fault environment is
  /// kNone (the fault-free path is seed-independent), per run otherwise,
  /// so the summary isolates the memory-fault effect either way.
  [[nodiscard]] faultsim::MemoryCampaignSummary run(
      const tensor::Tensor& image, std::size_t runs, FaultSeedStream& seeds,
      runtime::ComputeContext& ctx =
          runtime::ComputeContext::global()) const;

  /// Shard/resume form of run() over an explicit GLOBAL run range: run i
  /// in [run_begin, run_end) derives its stochastic state from
  /// `seed_base + i` and its scrub-cadence exposure from the global
  /// index i — `(i % scrub_interval) + 1` epochs — exactly as the
  /// monolithic campaign does, so summing the partial summaries of any
  /// disjoint cover of [0, runs) is bit-identical to run() even when the
  /// shard size is not a multiple of the scrub interval. Campaign-fabric
  /// shard entry point: consumes no stream, const/re-entrant, shards may
  /// execute concurrently from worker threads.
  [[nodiscard]] faultsim::MemoryCampaignSummary run_range(
      const tensor::Tensor& image, std::size_t run_begin,
      std::size_t run_end, std::uint64_t seed_base,
      runtime::ComputeContext& ctx =
          runtime::ComputeContext::global()) const;

  [[nodiscard]] const MemoryCampaignConfig& config() const noexcept {
    return config_;
  }

 private:
  const HybridNetwork* net_;
  MemoryCampaignConfig config_;
};

}  // namespace hybridcnn::core
