#include "common.hpp"

#include "build_info.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "data/renderer.hpp"
#include "nn/alexnet.hpp"
#include "reliable/static_dispatch.hpp"
#include "runtime/isa.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hybridcnn;

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string env_json(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "null" : json_string(v);
}

const char* kernel_name(reliable::detail::ConvKernel k) {
  switch (k) {
    case reliable::detail::ConvKernel::kAuto:
      return "auto";
    case reliable::detail::ConvKernel::kPixel:
      return "pixel";
    case reliable::detail::ConvKernel::kChannel:
      return "channel";
  }
  return "unknown";
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& why, std::uint64_t count) {
  failed_ += count;
  std::cerr << "perfbench: FAILED (" << count << "): " << why << '\n';
}

std::string Result::metrics_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics_[i].name) + ": {\"value\": " +
           json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  return out + "}";
}

std::string Result::notes_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + json_number(value);
  }
  for (const auto& [key, values] : series_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? ", " : "") + json_number(values[i]);
    }
    out += "]";
  }
  return out + "}";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_json(const Options& opt, std::size_t threads) {
  const bool simd = reliable::detail::reliable_simd_enabled();
  const auto kernel = reliable::detail::reliable_kernel_choice();
  const bool kill_switch =
      !simd || kernel != reliable::detail::ConvKernel::kAuto;
  std::ostringstream os;
  os << "{\"isa\": " << json_string(runtime::isa::kIsaName)
     << ", \"float_lanes\": " << runtime::isa::kFloatLanes
     << ", \"nproc\": " << affinity_cpus()
     << ", \"pool_threads\": " << threads
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"flags\": " << json_string(PERFBENCH_FLAGS)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"source\": " << json_string(opt.source_id)
     << ", \"env\": {\"HYBRIDCNN_THREADS\": " << env_json("HYBRIDCNN_THREADS")
     << ", \"HYBRIDCNN_RELIABLE_SIMD\": "
     << env_json("HYBRIDCNN_RELIABLE_SIMD")
     << ", \"HYBRIDCNN_RELIABLE_KERNEL\": "
     << env_json("HYBRIDCNN_RELIABLE_KERNEL") << "}"
     << ", \"reliable_simd\": " << (simd ? "true" : "false")
     << ", \"reliable_kernel\": " << json_string(kernel_name(kernel))
     << ", \"kill_switch\": " << (kill_switch ? "true" : "false") << "}";
  return os.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "perfbench: cannot write " << path << '\n';
    return;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  util::Rng rng(seed, salt);
  return rng();
}

std::vector<tensor::Tensor> make_signs(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed, 0x5167);
  const auto first_class = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(data::kNumClasses) - 1));
  std::vector<tensor::Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    data::RenderParams p;
    p.cls = static_cast<data::SignClass>((first_class + i) %
                                         data::kNumClasses);
    p.size = nn::kAlexNetInput;
    p.rotation = rng.uniform(-0.4, 0.4);
    p.scale = rng.uniform(0.6, 0.9);
    p.offset_x = rng.uniform(-6.0, 6.0);
    p.offset_y = rng.uniform(-6.0, 6.0);
    p.brightness = rng.uniform(0.8, 1.2);
    p.noise_sigma = rng.uniform(0.01, 0.05);
    p.noise_seed = rng();
    images.push_back(data::render_sign(p));
  }
  return images;
}

tensor::Tensor batched(const tensor::Tensor& chw) {
  tensor::Tensor out = chw;
  const tensor::Shape s = chw.shape();
  out.reshape(tensor::Shape{1, s[0], s[1], s[2]});
  return out;
}

faultsim::FaultConfig campaign_faults() {
  faultsim::FaultConfig f;
  f.kind = faultsim::FaultKind::kTransient;
  f.target = faultsim::FaultTarget::kResult;
  // About 40 upsets per classification at 227 px (conv1 DMR plus the
  // qualifier's Sobel): every run activates faults, and single upsets
  // this sparse are always corrected by one-operation rollback.
  f.probability = 1e-7;
  f.bit = -1;
  return f;
}

Model build_model(const faultsim::FaultConfig& faults,
                  std::uint64_t fault_seed) {
  const auto t0 = Clock::now();
  auto cnn = nn::make_alexnet(
      {.num_classes = data::kNumClasses, .seed = 42, .with_dropout = false});
  const auto t1 = Clock::now();
  core::HybridConfig cfg;
  cfg.scheme = "dmr";
  cfg.fault_config = faults;
  cfg.fault_seed = fault_seed;
  Model m;
  m.net = std::make_shared<const core::HybridNetwork>(
      std::move(cnn), nn::kAlexNetConv1, cfg);
  m.alexnet_build_s = ms_between(t0, t1) / 1e3;
  return m;
}

bool identical(const core::HybridClassification& a,
               const core::HybridClassification& b) {
  const auto& qa = a.qualifier;
  const auto& qb = b.qualifier;
  return a.predicted_class == b.predicted_class &&
         std::bit_cast<std::uint64_t>(a.confidence) ==
             std::bit_cast<std::uint64_t>(b.confidence) &&
         a.safety_critical == b.safety_critical && a.decision == b.decision &&
         qa.match == qb.match && qa.reliable == qb.reliable &&
         qa.report == qb.report && qa.shape.match == qb.shape.match &&
         std::bit_cast<std::uint64_t>(qa.shape.distance) ==
             std::bit_cast<std::uint64_t>(qb.shape.distance) &&
         qa.shape.corners == qb.shape.corners &&
         qa.shape.word == qb.shape.word &&
         qa.shape.rotation == qb.shape.rotation &&
         a.conv1_report == b.conv1_report;
}

}  // namespace perfbench
