// Binary weight serialization for trained networks.
//
// The safety workflow the paper sketches (Section V.B) needs trained
// models to move between the training tool and the (certified) inference
// runtime; this module provides the library's interchange format: a
// versioned little-endian container of named parameter tensors. Loading
// validates parameter count, order and shapes against the target network
// — a mismatched artefact is rejected rather than partially applied.
#pragma once

#include <string>

#include "nn/sequential.hpp"

namespace hybridcnn::nn {

/// Writes every parameter of `net` to `path`.
/// Throws std::runtime_error on IO failure.
void save_weights(Sequential& net, const std::string& path);

/// Loads parameters saved by save_weights() into `net`.
/// Throws std::runtime_error on IO/format failure and
/// std::invalid_argument if the artefact does not match the network
/// (count, name or shape of any parameter). `net` is left unchanged
/// whenever it throws.
void load_weights(Sequential& net, const std::string& path);

}  // namespace hybridcnn::nn
