#include "vision/edge_map.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "vision/gray.hpp"
#include "vision/sobel.hpp"
#include "vision/threshold.hpp"

namespace hybridcnn::vision {

void edge_magnitude(const tensor::Tensor& chw, std::span<float> out,
                    runtime::Workspace& ws) {
  const auto& sh = chw.shape();
  if (sh.rank() != 3 || (sh[0] != 3 && sh[0] != 1)) {
    throw std::invalid_argument("edge_magnitude: expected [3|1, H, W]");
  }
  runtime::Workspace::Scope scope(ws);
  const std::span<float> gray = ws.alloc_span_as<float>(sh[1] * sh[2]);
  to_gray(chw, gray);
  sobel_magnitude(gray, sh[1], sh[2], out);
}

tensor::Tensor edge_magnitude(const tensor::Tensor& chw) {
  return sobel_magnitude(to_gray(chw));
}

BinaryMask dominant_shape(const tensor::Tensor& chw) {
  const auto& sh = chw.shape();
  if (sh.rank() != 3 || (sh[0] != 3 && sh[0] != 1)) {
    throw std::invalid_argument("dominant_shape: expected [3|1, H, W]");
  }
  const std::size_t channels = sh[0];
  const std::size_t h = sh[1];
  const std::size_t w = sh[2];
  const std::size_t plane = h * w;

  // Background colour estimate: mean over the 1-pixel border ring, which
  // a centred sign never covers.
  double bg[3] = {0.0, 0.0, 0.0};
  std::size_t ring = 0;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (y != 0 && y != h - 1 && x != 0 && x != w - 1) continue;
      for (std::size_t c = 0; c < channels; ++c) {
        bg[c] += chw[c * plane + y * w + x];
      }
      ++ring;
    }
  }
  for (std::size_t c = 0; c < channels; ++c) {
    bg[c] /= static_cast<double>(ring);
  }

  // Colour distance to background, Otsu-binarised.
  tensor::Tensor dist(tensor::Shape{h, w});
  for (std::size_t p = 0; p < plane; ++p) {
    double acc = 0.0;
    for (std::size_t c = 0; c < channels; ++c) {
      const double d = static_cast<double>(chw[c * plane + p]) - bg[c];
      acc += d * d;
    }
    dist[p] = static_cast<float>(std::sqrt(acc));
  }
  return largest_component(threshold_otsu(dist));
}

void mask_from_feature_map(std::span<const float> feature_map, std::size_t h,
                           std::size_t w, MaskView out,
                           runtime::Workspace& ws) {
  if (feature_map.size() != h * w || out.height != h || out.width != w ||
      out.data == nullptr) {
    throw std::invalid_argument("mask_from_feature_map: size mismatch");
  }
  const std::size_t n = h * w;
  runtime::Workspace::Scope scope(ws);

  // Edge pixels from the feature map's absolute response.
  const std::span<float> mag = ws.alloc_span_as<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float v = feature_map[i];
    mag[i] = v >= 0.0f ? v : -v;
  }
  MaskView edges{h, w, ws.alloc_as<std::uint8_t>(n)};
  threshold_otsu(mag, edges);

  // A zero-padded edge convolution produces spurious strong responses
  // along the image frame; the frame is not shape evidence, so clear a
  // two-pixel band before any morphology can smear it inward.
  // Band depth is clamped to the image so the mirrored index h-1-b can
  // never underflow on degenerate sizes (also keeps GCC's object-size
  // analysis happy under -O3).
  const auto clear_band = [&](MaskView m, std::size_t band) {
    for (std::size_t b = 0; b < std::min(band, h); ++b) {
      for (std::size_t x = 0; x < w; ++x) {
        m.set(b, x, false);
        m.set(h - 1 - b, x, false);
      }
    }
    for (std::size_t b = 0; b < std::min(band, w); ++b) {
      for (std::size_t y = 0; y < h; ++y) {
        m.set(y, b, false);
        m.set(y, w - 1 - b, false);
      }
    }
  };
  clear_band(edges, 2);

  // Close small contour gaps: a single mixed-direction filter (the
  // paper's Sobel x/y/x stack collapses both gradient axes into one map)
  // has directional nulls where the boundary response vanishes, and any
  // gap lets the background flood leak into the shape.
  MaskView dilated{h, w, ws.alloc_as<std::uint8_t>(n)};
  dilate(edges, 1, dilated);

  // Keep the outermost ring free so the background flood below always
  // has entry points.
  clear_band(dilated, 1);

  // Fill the interior: flood the background from the border over non-edge
  // pixels; whatever is unreachable is inside an edge contour.
  std::uint8_t* outside = ws.alloc_as<std::uint8_t>(n);
  for (std::size_t i = 0; i < n; ++i) outside[i] = 0;
  std::size_t* queue = ws.alloc_as<std::size_t>(n);
  std::size_t head = 0;
  std::size_t tail = 0;
  const auto push = [&](std::size_t y, std::size_t x) {
    const std::size_t idx = y * w + x;
    if (outside[idx] != 0 || dilated.data[idx] != 0) return;
    outside[idx] = 1;
    queue[tail++] = idx;
  };
  for (std::size_t x = 0; x < w; ++x) {
    push(0, x);
    push(h - 1, x);
  }
  for (std::size_t y = 0; y < h; ++y) {
    push(y, 0);
    push(y, w - 1);
  }
  while (head < tail) {
    const std::size_t idx = queue[head++];
    const std::size_t y = idx / w;
    const std::size_t x = idx % w;
    if (y > 0) push(y - 1, x);
    if (y + 1 < h) push(y + 1, x);
    if (x > 0) push(y, x - 1);
    if (x + 1 < w) push(y, x + 1);
  }

  MaskView filled{h, w, ws.alloc_as<std::uint8_t>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    filled.data[i] = outside[i] != 0 ? 0 : 1;
  }
  // Erode once to undo the dilation's boundary fattening.
  MaskView eroded{h, w, ws.alloc_as<std::uint8_t>(n)};
  erode(filled, 1, eroded);
  largest_component(eroded, out, ws);
}

BinaryMask mask_from_feature_map(const tensor::Tensor& feature_map) {
  const auto& sh = feature_map.shape();
  if (sh.rank() != 2) {
    throw std::invalid_argument("mask_from_feature_map: expected [H, W]");
  }
  BinaryMask out(sh[0], sh[1]);
  mask_from_feature_map(feature_map.data(), sh[0], sh[1], out.view(),
                        runtime::thread_scratch());
  return out;
}

}  // namespace hybridcnn::vision
