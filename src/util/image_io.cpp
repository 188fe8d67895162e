#include "util/image_io.hpp"

#include <fstream>
#include <stdexcept>

namespace hybridcnn::util {

namespace {

void require(bool cond, const std::string& msg) {
  if (!cond) throw std::runtime_error(msg);
}

}  // namespace

void write_pgm(const std::string& path, const GrayImage& img) {
  require(img.pixels.size() ==
              static_cast<std::size_t>(img.width) * img.height,
          "write_pgm: pixel buffer size mismatch");
  std::ofstream out(path, std::ios::binary);
  require(static_cast<bool>(out), "write_pgm: cannot open " + path);
  out << "P5\n" << img.width << ' ' << img.height << "\n255\n";
  out.write(reinterpret_cast<const char*>(img.pixels.data()),
            static_cast<std::streamsize>(img.pixels.size()));
  require(static_cast<bool>(out), "write_pgm: write failed for " + path);
}

void write_ppm(const std::string& path, const RgbImage& img) {
  require(img.pixels.size() ==
              static_cast<std::size_t>(img.width) * img.height * 3,
          "write_ppm: pixel buffer size mismatch");
  std::ofstream out(path, std::ios::binary);
  require(static_cast<bool>(out), "write_ppm: cannot open " + path);
  out << "P6\n" << img.width << ' ' << img.height << "\n255\n";
  out.write(reinterpret_cast<const char*>(img.pixels.data()),
            static_cast<std::streamsize>(img.pixels.size()));
  require(static_cast<bool>(out), "write_ppm: write failed for " + path);
}

}  // namespace hybridcnn::util
