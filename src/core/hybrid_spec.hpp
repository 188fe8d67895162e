// Platform-agnostic textual description of a hybrid CNN partition.
//
// The paper's future work calls for "extensions to the ONNX standard to
// facilitate the platform-agnostic description of hybrid-CNNs". This
// module provides that capability at the library's scale: the complete
// hybrid execution envelope — redundancy scheme, leaky-bucket policy,
// safety-critical classes, dependable filter, qualifier parameters and
// fault environment — round-trips through a line-oriented `key = value`
// document that any runtime (or a future ONNX extension) can consume.
#pragma once

#include <string>

#include "core/hybrid_network.hpp"

namespace hybridcnn::core {

/// Serialises a hybrid configuration. Deterministic key order, one
/// `key = value` pair per line, '#' comments allowed on read.
std::string to_spec(const HybridConfig& config);

/// Parses a spec document produced by to_spec() (or written by hand).
/// Unknown keys throw std::invalid_argument (a spec is a safety artefact:
/// silently ignoring a typo like "buckte_factor" would weaken the very
/// policy it encodes). So do malformed values: a number with trailing
/// characters, a negative unsigned field, or a fault_probability /
/// fault_burst_continue outside [0, 1]. Missing keys keep their defaults.
HybridConfig parse_spec(const std::string& text);

/// Convenience: writes the spec to a file / reads it back.
/// Throws std::runtime_error on IO failure.
void save_spec(const HybridConfig& config, const std::string& path);
HybridConfig load_spec(const std::string& path);

}  // namespace hybridcnn::core
