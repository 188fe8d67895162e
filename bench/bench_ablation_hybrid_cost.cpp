// ABL-HYBRID — the conclusion's footprint claim: "we can reduce the
// necessary reliable execution to limits that a dependable model
// determines rather than just reliably executing an entire CNN or
// maintaining two parallel yet independent execution paths. We conserve
// both footprint and computational power."
//
// Four execution strategies over AlexNet are compared in logical MACs
// (architecture-independent):
//   plain          — no reliability at all
//   hybrid (paper) — conv1 reliable (DMR) + qualifier, rest plain
//   full-reliable  — every conv/fc op through DMR operators
//   duplicated     — two parallel independent executions + compare
#include <cstdio>

#include "bench_common.hpp"
#include "core/hybrid_network.hpp"
#include "nn/alexnet.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace hybridcnn;

}  // namespace

int main() {
  bench::banner("ABL-HYBRID", "hybrid vs full-reliable vs duplicated cost");

  // --- MAC accounting at the paper's scale (AlexNet, 227x227). --------
  core::HybridNetwork hybrid(
      nn::make_alexnet({.num_classes = 43, .seed = 1, .with_dropout = false}),
      nn::kAlexNetConv1, core::HybridConfig{});
  const auto split = hybrid.cost_split(tensor::Shape{3, 227, 227});

  // DMR doubles every reliable execution; the qualifier is already inside
  // reliable_macs.
  const std::uint64_t plain = split.total_macs - // qualifier not in plain
                              2ull * 9ull * 227ull * 227ull;
  const std::uint64_t hybrid_cost =
      (split.total_macs - split.reliable_macs) + 2 * split.reliable_macs;
  const std::uint64_t full_reliable = 2 * split.total_macs;
  const std::uint64_t duplicated = 2 * plain;

  util::Table table("execution strategies, AlexNet 227x227 (logical MACs)",
                    {"strategy", "MACs (1e6)", "vs plain", "reliable share"});
  const auto row = [&](const char* name, std::uint64_t macs,
                       const char* share) {
    table.row({name, util::Table::fixed(static_cast<double>(macs) / 1e6, 1),
               util::Table::fixed(static_cast<double>(macs) /
                                      static_cast<double>(plain), 3),
               share});
  };
  row("plain CNN (no reliability)", plain, "0%");
  row("hybrid (paper): conv1 DMR + qualifier", hybrid_cost,
      util::Table::fixed(100.0 * static_cast<double>(split.reliable_macs) /
                             static_cast<double>(split.total_macs), 1)
          .append("%")
          .c_str());
  row("fully reliable CNN (every op DMR)", full_reliable, "100%");
  row("duplicated independent CNNs", duplicated, "100%");
  table.print();

  util::CsvWriter csv(
      util::results_path(bench::results_dir(), "hybrid_cost.csv"),
      {"strategy", "alexnet_macs"});
  csv.row({"plain", std::to_string(plain)});
  csv.row({"hybrid", std::to_string(hybrid_cost)});
  csv.row({"full_reliable", std::to_string(full_reliable)});
  csv.row({"duplicated", std::to_string(duplicated)});

  std::printf("\nexpected shape: hybrid adds only the reliable share "
              "(conv1 ~9%% of AlexNet MACs) once, while full reliability "
              "and duplication double everything (1.10x vs 2.00x).\n");
  std::printf("measured steady-state time: perfbench's "
              "core.hybrid_over_plain (python3 perfbench/run.py "
              "--workload classify_b1 --trace 1).\n");
  std::printf("CSV written to %s\n", csv.path().c_str());
  return 0;
}
