// Reference image operations for the wavelet tests: the block-average
// downsample that coarse pyramid levels approximate, the distance the
// tests measure reconstructions with, and the first, plain forms of image
// synthesis and of the Haar transform, which the fast forms in src/ must
// match byte for byte.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "wavelet/haar.hpp"
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

/// Image::synthetic in its first form: the scene draws, then one serial
/// noise stream and one exp per blob and pixel.  Image::synthetic must
/// produce these bytes for every size and seed.
inline Image synthetic(int width, int height, std::uint64_t seed) {
  Image img(width, height);
  util::SplitMix64 rng(seed);
  double gx = rng.uniform(0.3, 1.0);
  double gy = rng.uniform(0.3, 1.0);
  struct Blob {
    double cx, cy, radius, amplitude, two_r2;
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
  struct Rect {
    int x0, y0, x1, y1;
    double amplitude;
  };
  std::vector<Rect> rects;
  int n_rects = 3 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < n_rects; ++i) {
    int x0 =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(width)));
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
  constexpr int kNoise = 20;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      double v = 110.0 + gx * 60.0 * x / width + gy * 60.0 * y / height;
      for (const Blob& b : blobs) {
        double dx = x - b.cx, dy = y - b.cy;
        v += b.amplitude * std::exp(-(dx * dx + dy * dy) / b.two_r2);
      }
      for (const Rect& r : rects) {
        if (x >= r.x0 && x < r.x1 && y >= r.y0 && y < r.y1) v += r.amplitude;
      }
      v += 6.0 * std::sin(tex_freq * x) * std::cos(tex_freq * 0.8 * y);
      v += static_cast<double>(rng.next_below(2 * kNoise + 1)) - kNoise;
      img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
  return img;
}

/// One forward 2-D Haar step in two passes over the top-left `w x h` of
/// `work` (row stride `stride`): rows to averages | differences, then
/// columns likewise; LL lands top-left, HL top-right, LH bottom-left and
/// HH bottom-right.  `scratch` holds at least w*h values.
inline void forward_step(std::int32_t* work, int stride, int w, int h,
                         std::int32_t* scratch) {
  const int half_w = w / 2;
  const int half_h = h / 2;
  for (int y = 0; y < h; ++y) {
    std::int32_t* row = work + static_cast<std::size_t>(y) * stride;
    for (int x = 0; x < half_w; ++x) {
      scratch[x] = (row[2 * x] + row[2 * x + 1]) >> 1;
      scratch[half_w + x] = row[2 * x] - row[2 * x + 1];
    }
    std::copy(scratch, scratch + w, row);
  }
  for (int y = 0; y < half_h; ++y) {
    const std::int32_t* r0 = work + static_cast<std::size_t>(2 * y) * stride;
    const std::int32_t* r1 = r0 + stride;
    std::int32_t* avg = scratch + static_cast<std::size_t>(y) * w;
    std::int32_t* dif = scratch + static_cast<std::size_t>(half_h + y) * w;
    for (int x = 0; x < w; ++x) {
      avg[x] = (r0[x] + r1[x]) >> 1;
      dif[x] = r0[x] - r1[x];
    }
  }
  for (int y = 0; y < h; ++y) {
    const std::int32_t* src = scratch + static_cast<std::size_t>(y) * w;
    std::copy(src, src + w, work + static_cast<std::size_t>(y) * stride);
  }
}

/// The inverse of forward_step: columns, then rows.
inline void inverse_step(std::int32_t* work, int stride, int w, int h,
                         std::int32_t* scratch) {
  const int half_w = w / 2;
  const int half_h = h / 2;
  for (int y = 0; y < half_h; ++y) {
    const std::int32_t* a_row = work + static_cast<std::size_t>(y) * stride;
    const std::int32_t* d_row =
        work + static_cast<std::size_t>(half_h + y) * stride;
    std::int32_t* o0 = scratch + static_cast<std::size_t>(2 * y) * w;
    std::int32_t* o1 = o0 + w;
    for (int x = 0; x < w; ++x) {
      std::int32_t x0 = a_row[x] + ((d_row[x] + 1) >> 1);
      o0[x] = x0;
      o1[x] = x0 - d_row[x];
    }
  }
  for (int y = 0; y < h; ++y) {
    const std::int32_t* src = scratch + static_cast<std::size_t>(y) * w;
    std::copy(src, src + w, work + static_cast<std::size_t>(y) * stride);
  }
  for (int y = 0; y < h; ++y) {
    std::int32_t* row = work + static_cast<std::size_t>(y) * stride;
    for (int x = 0; x < half_w; ++x) {
      std::int32_t x0 = row[x] + ((row[half_w + x] + 1) >> 1);
      scratch[2 * x] = x0;
      scratch[2 * x + 1] = x0 - row[half_w + x];
    }
    std::copy(scratch, scratch + w, row);
  }
}

/// The bands of a `levels`-level decomposition of `image`, by forward_step
/// on a full-size int32 frame, in progressive band-id order: LL, then for
/// k = 1..levels the LH, HL and HH bands of level k.
inline std::vector<Band> decompose(const Image& image, int levels) {
  const int width = image.width(), height = image.height();
  std::vector<std::int32_t> work(image.pixels().begin(),
                                 image.pixels().end());
  std::vector<std::int32_t> scratch(work.size());
  auto cut = [&](int x0, int y0, int w, int h) {
    Band band;
    band.width = w;
    band.height = h;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        band.coeffs.push_back(static_cast<std::int16_t>(
            work[static_cast<std::size_t>(y0 + y) * width + x0 + x]));
      }
    }
    return band;
  };
  std::vector<Band> bands(static_cast<std::size_t>(1 + 3 * levels));
  int w = width, h = height;
  for (int step = 0; step < levels; ++step) {
    forward_step(work.data(), width, w, h, scratch.data());
    const int k = levels - step;
    const std::size_t first = static_cast<std::size_t>(1 + 3 * (k - 1));
    bands[first] = cut(0, h / 2, w / 2, h / 2);       // LH
    bands[first + 1] = cut(w / 2, 0, w / 2, h / 2);   // HL
    bands[first + 2] = cut(w / 2, h / 2, w / 2, h / 2);  // HH
    w /= 2;
    h /= 2;
  }
  bands[0] = cut(0, 0, w, h);
  return bands;
}

/// Pyramid::reconstruct by inverse_step on a full-size int32 frame: each
/// level's bands are laid beside the current LL region, an unallocated
/// band reading as zero, and the result is clamped to [0, 255].
inline Image reconstruct(const Pyramid& pyramid, int level) {
  const int out_w = pyramid.width_at(level), out_h = pyramid.height_at(level);
  std::vector<std::int32_t> work(static_cast<std::size_t>(out_w) * out_h);
  std::vector<std::int32_t> scratch(work.size());
  auto place = [&](const Band& band, int x0, int y0) {
    if (band.coeffs.empty()) return;
    for (int y = 0; y < band.height; ++y) {
      for (int x = 0; x < band.width; ++x) {
        work[static_cast<std::size_t>(y0 + y) * out_w + x0 + x] =
            band.at(x, y);
      }
    }
  };
  place(pyramid.ll(), 0, 0);
  for (int k = 1; k <= level; ++k) {
    const Band& lh = pyramid.detail(k, Orientation::kLH);
    place(pyramid.detail(k, Orientation::kHL), lh.width, 0);
    place(lh, 0, lh.height);
    place(pyramid.detail(k, Orientation::kHH), lh.width, lh.height);
    inverse_step(work.data(), out_w, 2 * lh.width, 2 * lh.height,
                 scratch.data());
  }
  Image img(out_w, out_h);
  for (int y = 0; y < out_h; ++y) {
    for (int x = 0; x < out_w; ++x) {
      img.at(x, y) = static_cast<std::uint8_t>(std::clamp(
          work[static_cast<std::size_t>(y) * out_w + x], 0, 255));
    }
  }
  return img;
}

}  // namespace avf::wavelet::oracle
