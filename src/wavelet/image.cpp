#include "wavelet/image.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace avf::wavelet {

Image::Image(int width, int height) : width_(width), height_(height) {
  if (width < 0 || height < 0) {
    throw std::invalid_argument("Image: width and height must be >= 0");
  }
  pixels_.assign(static_cast<std::size_t>(width) * height, 0);
}

Image Image::synthetic(int width, int height, std::uint64_t seed) {
  // Checked before any draw: a zero size would reach next_below(0), a
  // division by zero.
  if (width < 1 || height < 1) {
    throw std::invalid_argument("synthetic: width and height must be >= 1");
  }
  Image img(width, height);
  util::SplitMix64 rng(seed);

  // Background: two-axis gradient with a seed-dependent orientation.
  double gx = rng.uniform(0.3, 1.0);
  double gy = rng.uniform(0.3, 1.0);

  // Gaussian blobs.
  struct Blob {
    double cx, cy, radius, amplitude;
    double two_r2;  // 2 * radius^2, the exponent's denominator
  };
  std::vector<Blob> blobs;
  int n_blobs = 6 + static_cast<int>(rng.next_below(6));
  for (int i = 0; i < n_blobs; ++i) {
    Blob b{rng.uniform(0, width), rng.uniform(0, height),
           rng.uniform(width / 16.0, width / 4.0), rng.uniform(-90.0, 90.0),
           0.0};
    b.two_r2 = 2.0 * b.radius * b.radius;
    blobs.push_back(b);
  }

  // Hard-edged rectangles (keeps high-frequency content non-trivial).
  struct Rect {
    int x0, y0, x1, y1;
    double amplitude;
  };
  std::vector<Rect> rects;
  int n_rects = 3 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < n_rects; ++i) {
    int x0 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(width)));
    int y0 =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(height)));
    int w = 8 + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(width / 4 + 1)));
    int h = 8 + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(height / 4 + 1)));
    rects.push_back(Rect{x0, y0, std::min(width, x0 + w),
                         std::min(height, y0 + h), rng.uniform(-60.0, 60.0)});
  }

  double tex_freq = rng.uniform(0.05, 0.25);
  // `rng` now stands at draw 5 + 4*n_blobs + 5*n_rects, pixel (0, 0)'s
  // noise draw; pixel (x, y) takes the draw y*width + x after it.

  // Terms that depend on x only (or y only, below) are computed once.  Any
  // rewrite of these expressions (a reciprocal multiply, a fused or
  // factored form) moves pixels; ImageGolden.* pins them.
  std::vector<double> gradient_x(static_cast<std::size_t>(width));
  std::vector<double> texture_x(static_cast<std::size_t>(width));
  for (int x = 0; x < width; ++x) {
    gradient_x[static_cast<std::size_t>(x)] = gx * 60.0 * x / width;
    texture_x[static_cast<std::size_t>(x)] = 6.0 * std::sin(tex_freq * x);
  }

  // Sensor-noise amplitude: keeps the wavelet detail bands from being
  // unrealistically sparse, so codec ratios land in the range the paper's
  // photographic data exhibits (see DESIGN.md calibration notes).
  constexpr int kNoise = 20;
  // Rows are cut into bands of about kBandPixels pixels; an image of at
  // most one band runs inline on the caller's thread.
  constexpr int kBandPixels = 1 << 16;
  const int band_rows = std::max(1, kBandPixels / width);
  const int bands = height / band_rows + (height % band_rows != 0 ? 1 : 0);
  util::parallel_for(0, static_cast<std::size_t>(bands), [&](std::size_t band) {
    const int y0 = static_cast<int>(band) * band_rows;
    const int y1 = std::min(height, y0 + band_rows);
    util::SplitMix64 noise = rng;
    noise.skip(static_cast<std::uint64_t>(y0) *
               static_cast<std::uint64_t>(width));
    for (int y = y0; y < y1; ++y) {
      const double gradient_y = gy * 60.0 * y / height;
      const double texture_y = std::cos(tex_freq * 0.8 * y);
      for (int x = 0; x < width; ++x) {
        // The operand order of this sum fixes every intermediate double.
        double v = 110.0 + gradient_x[static_cast<std::size_t>(x)] +
                   gradient_y;
        for (const Blob& b : blobs) {
          double dx = x - b.cx, dy = y - b.cy;
          v += b.amplitude * std::exp(-(dx * dx + dy * dy) / b.two_r2);
        }
        for (const Rect& r : rects) {
          if (x >= r.x0 && x < r.x1 && y >= r.y0 && y < r.y1) v += r.amplitude;
        }
        // Mild deterministic texture (sinusoidal; compresses but not freely).
        v += texture_x[static_cast<std::size_t>(x)] * texture_y;
        v += static_cast<double>(noise.next_below(2 * kNoise + 1)) - kNoise;
        img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
      }
    }
  });
  return img;
}

}  // namespace avf::wavelet
