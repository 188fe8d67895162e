// perfbench: end-to-end and per-layer benchmark of hybrid AlexNet-227
// inference (scheme dmr). Normally started through perfbench/run.py,
// which builds it first:
//
//   perfbench --workload classify_b1|serve_cameras|fault_campaign
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--source-id ID]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same loop untraced and traced (the difference is the tracing
// overhead), then the layer probe, and reports the per-layer metrics.
// Both modes check the loop's outputs outside the timed region. The last
// stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. Result and trace files go to --out-dir.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "probes.hpp"
#include "runtime/compute_context.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Per-layer metrics of --trace 1, in output order.
constexpr MetricSpec kLayerMetrics[] = {
    {"nn.conv1_ms", "ms"},
    {"nn.conv2_ms", "ms"},
    {"nn.conv3_ms", "ms"},
    {"nn.conv4_ms", "ms"},
    {"nn.conv5_ms", "ms"},
    {"nn.lrn1_ms", "ms"},
    {"nn.lrn2_ms", "ms"},
    {"nn.fc6_ms", "ms"},
    {"nn.fc7_ms", "ms"},
    {"nn.fc8_ms", "ms"},
    {"nn.remainder_ms", "ms"},
    {"nn.fc6_gmac_s", "GMAC/s"},
    {"reliable.conv1_fast_ms", "ms"},
    {"reliable.conv1_qualified_ms", "ms"},
    {"reliable.qualified_gap", "x"},
    {"reliable.logical_ops", "count"},
    {"reliable.retries", "count"},
    {"faultsim.faults_per_run", "count"},
    {"core.qualifier_ms", "ms"},
    {"core.hybrid_over_plain", "x"},
    {"share.reliable_conv1", "share"},
    {"share.qualifier", "share"},
    {"share.nn_remainder", "share"},
    {"serve.mean_batch", "frames"},
    {"serve.peak_queue_depth", "count"},
    {"serve.classify_seeded_b8_ms", "ms"},
    {"serve.deadline_miss_ratio", "share"},
    {"serve.generator_lag_ms", "ms"},
    {"fabric.shard_ms", "ms"},
    {"fabric.checkpoint_write_ms", "ms"},
    {"fabric.attempts", "count"},
    {"fabric.retries", "count"},
    {"fabric.failures", "count"},
    {"campaign.correct", "count"},
    {"campaign.corrected", "count"},
    {"campaign.abort", "count"},
    {"campaign.silent", "count"},
    {"setup.alexnet_build_s", "s"},
    {"trace.overhead_ms", "ms"},
};

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--source-id ID]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
      have_trace = true;
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else if (key == "--source-id") {
      opt.source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_trace && !opt.workload.empty() &&
         !opt.out_dir.empty() && opt.seconds > 0.0;
}

/// Prints the flat per-span table and returns it as a JSON array.
std::string self_time_table(const Tracer& tracer) {
  std::printf("%-32s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  std::ostringstream json;
  json << "[";
  for (const Tracer::Row& row : tracer.self_time_table()) {
    std::printf("%-32s %8zu %12.3f %12.3f\n", row.name.c_str(), row.count,
                row.total_ms, row.self_ms);
    json << (json.tellp() > 1 ? ", " : "") << "{\"span\": \"" << row.name
         << "\", \"count\": " << row.count
         << ", \"total_ms\": " << row.total_ms
         << ", \"self_ms\": " << row.self_ms << "}";
  }
  json << "]";
  return json.str();
}

int run(const Options& opt) {
  std::filesystem::create_directories(opt.out_dir);
  const std::unique_ptr<Workload> workload = make_workload(opt);
  hybridcnn::runtime::ComputeContext::set_global_threads(
      workload->pool_threads());
  const std::string host = host_json(opt, workload->pool_threads());
  std::printf("host %s\n", host.c_str());

  Result result;
  std::vector<double> setup_s;
  std::vector<double> alexnet_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    workload->setup();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    alexnet_s.push_back(workload->alexnet_build_s);
  }
  workload->prepare();

  std::string self_time = "[]";
  Tracer off(false);
  const LoopStats base = workload->run(opt.seconds, off, result);
  const double rss = peak_rss_mb();
  workload->check(result);
  result.note("samples", static_cast<double>(base.latency_ms.size()));
  result.note("loop_seconds", base.elapsed_s);
  result.series("latency_ms", base.latency_ms);

  if (!opt.trace) {
    result.metric("latency_p50_ms", quantile(base.latency_ms, 0.5), "ms");
    result.metric("latency_p90_ms", quantile(base.latency_ms, 0.9), "ms");
    result.metric("throughput_per_s",
                  static_cast<double>(base.completed) / base.elapsed_s, "1/s");
    result.metric("peak_rss_mb", rss, "MB");
    result.metric("setup_s", median(setup_s), "s");
  } else {
    Tracer tracer(true);
    const LoopStats traced = workload->run(opt.seconds, tracer, result);
    workload->check(result);
    std::map<std::string, double> layer = traced.layer;
    ProbeConfig probe;
    probe.seed = opt.seed;
    probe.out_dir = opt.out_dir;
    probe.serve_burst = layer.count("serve.mean_batch") == 0;
    probe.fabric_campaign = layer.count("fabric.shard_ms") == 0;
    run_layer_probe(*workload, probe, tracer, result, layer);
    layer["setup.alexnet_build_s"] = median(alexnet_s);
    layer["trace.overhead_ms"] =
        median(traced.latency_ms) - median(base.latency_ms);
    result.note("traced_samples",
                static_cast<double>(traced.latency_ms.size()));
    result.note("trace.overhead_share",
                median(traced.latency_ms) / median(base.latency_ms) - 1.0);
    for (const MetricSpec& m : kLayerMetrics) {
      const auto it = layer.find(m.name);
      if (it == layer.end()) {
        result.fail(std::string("per-layer metric not measured: ") + m.name);
        continue;
      }
      result.metric(m.name, it->second, m.unit);
    }
    self_time = self_time_table(tracer);
    const std::string trace_path = opt.out_dir + "/trace_" + opt.workload +
                                   "_seed" + std::to_string(opt.seed) +
                                   ".json";
    write_text(trace_path, tracer.chrome_json(host));
    std::printf("trace %s (%zu spans)\n", trace_path.c_str(),
                tracer.span_count());
  }

  const bool correct = result.failed() == 0;
  std::ostringstream file;
  file << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
       << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"host\": " << host
       << ", \"notes\": " << result.notes_json()
       << ", \"self_time\": " << self_time
       << ", \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted()
       << ", \"failed\": " << result.failed()
       << ", \"metrics\": " << result.metrics_json() << "}\n";
  write_text(opt.out_dir + "/result_" + opt.workload + "_seed" +
                 std::to_string(opt.seed) + "_trace" +
                 (opt.trace ? "1" : "0") + ".json",
             file.str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()),
              result.metrics_json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return usage("bad arguments");
  } catch (const std::exception&) {
    return usage("bad argument value");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return usage("unknown workload");
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
