#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace hybridcnn::nn {

namespace {

constexpr std::uint32_t kMagic = 0x48594257;  // "HYBW"
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::ifstream& in, const std::string& path) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("load_weights: truncated file " + path);
  return v;
}

}  // namespace

void save_weights(Sequential& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_weights: cannot open " + path);

  const auto params = net.params();
  write_u32(out, kMagic);
  write_u32(out, kVersion);
  write_u32(out, static_cast<std::uint32_t>(params.size()));
  for (const Param& p : params) {
    write_u32(out, static_cast<std::uint32_t>(p.name.size()));
    out.write(p.name.data(),
              static_cast<std::streamsize>(p.name.size()));
    const auto& shape = p.value->shape();
    write_u32(out, static_cast<std::uint32_t>(shape.rank()));
    for (std::size_t d = 0; d < shape.rank(); ++d) {
      write_u32(out, static_cast<std::uint32_t>(shape[d]));
    }
    out.write(reinterpret_cast<const char*>(p.value->data().data()),
              static_cast<std::streamsize>(p.value->count() *
                                           sizeof(float)));
  }
  if (!out) {
    throw std::runtime_error("save_weights: write failed for " + path);
  }
}

void load_weights(Sequential& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_weights: cannot open " + path);

  if (read_u32(in, path) != kMagic) {
    throw std::runtime_error("load_weights: bad magic in " + path);
  }
  if (read_u32(in, path) != kVersion) {
    throw std::runtime_error("load_weights: unsupported version in " + path);
  }

  const auto params = net.params();
  const std::uint32_t count = read_u32(in, path);
  if (count != params.size()) {
    throw std::invalid_argument(
        "load_weights: artefact has " + std::to_string(count) +
        " parameters, network has " + std::to_string(params.size()));
  }

  // Every tensor is read into a staging buffer first and committed only
  // once the whole artefact has validated, so a rejected file leaves the
  // network untouched.
  std::vector<std::vector<float>> staged;
  staged.reserve(params.size());
  for (const Param& p : params) {
    // Check the length before allocating: a corrupt length field must
    // not turn into a multi-gigabyte string.
    const std::uint32_t name_len = read_u32(in, path);
    if (name_len != p.name.size()) {
      throw std::invalid_argument("load_weights: expected parameter '" +
                                  p.name + "', artefact name has length " +
                                  std::to_string(name_len));
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (!in) throw std::runtime_error("load_weights: truncated " + path);
    if (name != p.name) {
      throw std::invalid_argument("load_weights: expected parameter '" +
                                  p.name + "', artefact has '" + name + "'");
    }
    const std::uint32_t rank = read_u32(in, path);
    const auto& shape = p.value->shape();
    if (rank != shape.rank()) {
      throw std::invalid_argument("load_weights: rank mismatch for " +
                                  p.name);
    }
    for (std::uint32_t d = 0; d < rank; ++d) {
      if (read_u32(in, path) != shape[d]) {
        throw std::invalid_argument("load_weights: shape mismatch for " +
                                    p.name);
      }
    }
    std::vector<float>& values = staged.emplace_back(p.value->count());
    in.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
    if (!in) throw std::runtime_error("load_weights: truncated " + path);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(),
              params[i].value->data().begin());
  }
}

}  // namespace hybridcnn::nn
