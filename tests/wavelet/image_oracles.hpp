// Reference image operations for the wavelet tests: the block-average
// downsample that coarse pyramid levels approximate, and the distance the
// tests measure reconstructions with.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "wavelet/image.hpp"

namespace avf::wavelet::oracle {

/// Mean absolute pixel difference of two images of equal dimensions.
inline double mean_abs_diff(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("mean_abs_diff: dimension mismatch");
  }
  const auto& pa = a.pixels();
  const auto& pb = b.pixels();
  if (pa.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    sum += std::abs(static_cast<int>(pa[i]) - static_cast<int>(pb[i]));
  }
  return sum / static_cast<double>(pa.size());
}

/// Downsample by pixel-block averaging to (width/f, height/f); `f` must
/// divide both dimensions.
inline Image downsample(const Image& img, int factor) {
  if (factor <= 0 || img.width() % factor != 0 ||
      img.height() % factor != 0) {
    throw std::invalid_argument("downsample: factor must divide dimensions");
  }
  Image out(img.width() / factor, img.height() / factor);
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      int sum = 0;
      for (int dy = 0; dy < factor; ++dy) {
        for (int dx = 0; dx < factor; ++dx) {
          sum += img.at(x * factor + dx, y * factor + dy);
        }
      }
      out.at(x, y) = static_cast<std::uint8_t>(sum / (factor * factor));
    }
  }
  return out;
}

}  // namespace avf::wavelet::oracle
