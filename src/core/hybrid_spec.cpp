#include "core/hybrid_spec.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace hybridcnn::core {

namespace {

std::string fault_kind_name(faultsim::FaultKind kind) {
  switch (kind) {
    case faultsim::FaultKind::kNone:
      return "none";
    case faultsim::FaultKind::kTransient:
      return "transient";
    case faultsim::FaultKind::kIntermittent:
      return "intermittent";
    case faultsim::FaultKind::kPermanent:
      return "permanent";
  }
  return "none";
}

faultsim::FaultKind parse_fault_kind(const std::string& name) {
  if (name == "none") return faultsim::FaultKind::kNone;
  if (name == "transient") return faultsim::FaultKind::kTransient;
  if (name == "intermittent") return faultsim::FaultKind::kIntermittent;
  if (name == "permanent") return faultsim::FaultKind::kPermanent;
  throw std::invalid_argument("hybrid spec: unknown fault kind '" + name +
                              "'");
}

std::string source_name(QualifierSource source) {
  switch (source) {
    case QualifierSource::kFullResolution:
      return "full_resolution";
    case QualifierSource::kDependableFeatureMap:
      return "dependable_feature_map";
    case QualifierSource::kDependableFeatureMapPair:
      return "dependable_feature_map_pair";
  }
  return "full_resolution";
}

QualifierSource parse_source(const std::string& name) {
  if (name == "full_resolution") return QualifierSource::kFullResolution;
  if (name == "dependable_feature_map") {
    return QualifierSource::kDependableFeatureMap;
  }
  if (name == "dependable_feature_map_pair") {
    return QualifierSource::kDependableFeatureMapPair;
  }
  throw std::invalid_argument("hybrid spec: unknown qualifier source '" +
                              name + "'");
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void bad_value(const std::string& key) {
  throw std::invalid_argument("hybrid spec: bad value for " + key);
}

/// Reads exactly one number from `value` into `out`. The whole value
/// must parse, so trailing characters ("5abc", "2 7") are rejected, and
/// a leading '-' on an unsigned field is an error instead of a modular
/// wrap-around.
template <typename T>
void parse_number(const std::string& key, const std::string& value, T& out) {
  if (std::is_unsigned_v<T> && value.starts_with('-')) bad_value(key);
  std::istringstream vs(value);
  if (!(vs >> out)) bad_value(key);
  vs >> std::ws;
  if (!vs.eof()) bad_value(key);
}

/// parse_number for a probability: additionally rejects values outside
/// [0, 1] (NaN included).
void parse_probability(const std::string& key, const std::string& value,
                       double& out) {
  parse_number(key, value, out);
  if (!(out >= 0.0 && out <= 1.0)) bad_value(key);
}

}  // namespace

std::string to_spec(const HybridConfig& config) {
  std::ostringstream os;
  os << "# hybridcnn partition spec v1\n";
  os << "scheme = " << config.scheme << '\n';
  os << "bucket_factor = " << config.policy.bucket_factor << '\n';
  os << "bucket_ceiling = " << config.policy.bucket_ceiling << '\n';
  os << "max_retries_per_op = " << config.policy.max_retries_per_op << '\n';
  os << "critical_classes =";
  for (const int c : config.critical_classes) os << ' ' << c;
  os << '\n';
  os << "dependable_filter = " << config.dependable_filter << '\n';
  os << "qualifier_sides = " << config.qualifier.sides << '\n';
  os << "qualifier_samples = " << config.qualifier.samples << '\n';
  os << "qualifier_word_length = " << config.qualifier.match.sax.word_length
     << '\n';
  os << "qualifier_alphabet = " << config.qualifier.match.sax.alphabet
     << '\n';
  os << "qualifier_mindist_threshold = "
     << config.qualifier.match.mindist_threshold << '\n';
  os << "qualifier_corner_tolerance = "
     << config.qualifier.match.corner_tolerance << '\n';
  os << "qualifier_source = " << source_name(config.qualifier.source)
     << '\n';
  os << "fault_kind = " << fault_kind_name(config.fault_config.kind) << '\n';
  os << "fault_probability = " << config.fault_config.probability << '\n';
  os << "fault_bit = " << config.fault_config.bit << '\n';
  os << "fault_num_pes = " << config.fault_config.num_pes << '\n';
  os << "fault_burst_continue = " << config.fault_config.burst_continue
     << '\n';
  os << "fault_seed = " << config.fault_seed << '\n';
  return os.str();
}

HybridConfig parse_spec(const std::string& text) {
  HybridConfig config;
  // The qualifier's bucket policy mirrors the kernel policy unless a
  // future spec version separates them.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("hybrid spec: malformed line '" + line +
                                  "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    const auto number = [&](auto& out) { parse_number(key, value, out); };

    if (key == "scheme") {
      if (value != "simplex" && value != "dmr" && value != "tmr") {
        throw std::invalid_argument("hybrid spec: unknown scheme '" + value +
                                    "'");
      }
      config.scheme = value;
    } else if (key == "bucket_factor") {
      number(config.policy.bucket_factor);
    } else if (key == "bucket_ceiling") {
      number(config.policy.bucket_ceiling);
    } else if (key == "max_retries_per_op") {
      number(config.policy.max_retries_per_op);
    } else if (key == "critical_classes") {
      config.critical_classes.clear();
      std::istringstream vs(value);
      int c = 0;
      while (vs >> c) config.critical_classes.insert(c);
      if (!vs.eof()) bad_value(key);  // a token that is not an int
    } else if (key == "dependable_filter") {
      number(config.dependable_filter);
    } else if (key == "qualifier_sides") {
      number(config.qualifier.sides);
    } else if (key == "qualifier_samples") {
      number(config.qualifier.samples);
    } else if (key == "qualifier_word_length") {
      number(config.qualifier.match.sax.word_length);
    } else if (key == "qualifier_alphabet") {
      number(config.qualifier.match.sax.alphabet);
    } else if (key == "qualifier_mindist_threshold") {
      number(config.qualifier.match.mindist_threshold);
    } else if (key == "qualifier_corner_tolerance") {
      number(config.qualifier.match.corner_tolerance);
    } else if (key == "qualifier_source") {
      config.qualifier.source = parse_source(value);
    } else if (key == "fault_kind") {
      config.fault_config.kind = parse_fault_kind(value);
    } else if (key == "fault_probability") {
      parse_probability(key, value, config.fault_config.probability);
    } else if (key == "fault_bit") {
      number(config.fault_config.bit);
    } else if (key == "fault_num_pes") {
      number(config.fault_config.num_pes);
    } else if (key == "fault_burst_continue") {
      parse_probability(key, value, config.fault_config.burst_continue);
    } else if (key == "fault_seed") {
      number(config.fault_seed);
    } else {
      throw std::invalid_argument("hybrid spec: unknown key '" + key + "'");
    }
  }
  // Keep the qualifier's reliability policy in lockstep with the kernel's.
  config.qualifier.policy = config.policy;
  return config;
}

void save_spec(const HybridConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_spec: cannot open " + path);
  out << to_spec(config);
  if (!out) throw std::runtime_error("save_spec: write failed for " + path);
}

HybridConfig load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_spec: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_spec(buffer.str());
}

}  // namespace hybridcnn::core
