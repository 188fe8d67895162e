// PGM/PPM image IO. Used by examples and benches to dump rendered signs,
// edge maps and qualifier inputs for visual inspection (Fig. 3 artefacts).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hybridcnn::util {

/// 8-bit grayscale image in row-major order.
struct GrayImage {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> pixels;  // size == width * height

  [[nodiscard]] std::uint8_t at(int y, int x) const {
    return pixels[static_cast<std::size_t>(y) * width + x];
  }
  std::uint8_t& at(int y, int x) {
    return pixels[static_cast<std::size_t>(y) * width + x];
  }
};

/// 8-bit RGB image, interleaved row-major order.
struct RgbImage {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> pixels;  // size == width * height * 3
};

/// Writes a binary PGM (P5). Throws std::runtime_error on IO failure.
void write_pgm(const std::string& path, const GrayImage& img);

/// Writes a binary PPM (P6). Throws std::runtime_error on IO failure.
void write_ppm(const std::string& path, const RgbImage& img);

}  // namespace hybridcnn::util
