#include "wavelet/image.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace avf::wavelet {

namespace {

/// A pixel value's byte: clamped to [0, 255], then truncated.
std::uint8_t to_pixel(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

// How far synthetic()'s factored pixel value may stray from the exact
// one.  Both add the same terms in the same order; only the blob terms are
// formed differently (the exp of a sum against a product of two exps).
// With u = 2^-53, exp within 1 ulp and z a blob term's exponent, the
// exact form lies within |amplitude| * u * (3z + 3) * e^-z of the true
// term and the factored form within |amplitude| * u * (2z + 6) * e^-z, so
// the two differ by at most 90 * u * (5/e + 9) < 1.1e-13 per blob,
// 1.2e-12 over 11 blobs.  The 19 or fewer running sums stay below
// 110 + 60 + 60 + 11*90 + 6*60 + 6 + 20 = 1606 in magnitude, so their
// roundings on the two sides add at most 2 * 19 * 1606 * u < 6.8e-12.
// Hence |approx - exact| < 1e-11, and the slack is 100x that; the largest
// difference measured over 433 images of 1x1 to 1024x1024 is 2.3e-13.
constexpr double kTruncationSlack = 1e-9;

/// The bytes the ends of [v - slack, v + slack] become under to_pixel, as
/// ints (a row loop over them vectorizes).
struct ByteRange {
  int lo, hi;
};
ByteRange byte_range(double v) {
  return {static_cast<int>(std::clamp(v - kTruncationSlack, 0.0, 255.0)),
          static_cast<int>(std::clamp(v + kTruncationSlack, 0.0, 255.0))};
}

}  // namespace

namespace detail {

bool truncation_decided(double v) {
  const ByteRange r = byte_range(v);
  return r.lo == r.hi;
}

}  // namespace detail

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

  // The pixel's value before truncation, as first specified: this exact
  // expression and operand order define every pixel.  `noise` is the
  // pixel's draw.
  auto exact_value = [&](int x, int y, std::uint64_t noise) {
    double v = 110.0 + gradient_x[static_cast<std::size_t>(x)] +
               gy * 60.0 * y / height;
    for (const Blob& b : blobs) {
      double dx = x - b.cx, dy = y - b.cy;
      v += b.amplitude * std::exp(-(dx * dx + dy * dy) / b.two_r2);
    }
    for (const Rect& r : rects) {
      if (x >= r.x0 && x < r.x1 && y >= r.y0 && y < r.y1) v += r.amplitude;
    }
    // Mild deterministic texture (sinusoidal; compresses but not freely).
    v += texture_x[static_cast<std::size_t>(x)] *
         std::cos(tex_freq * 0.8 * y);
    v += static_cast<double>(noise) - kNoise;
    return v;
  };

  // Separable blob field.  exp(-(dx²+dy²)/2r²) = exp(-dx²/2r²) *
  // exp(-dy²/2r²), so blob b contributes column factor blob_x[b][x] =
  // amplitude * exp(-dx²/2r²) times row factor blob_y[b][y] =
  // exp(-dy²/2r²): n_blobs * (width + height) exps instead of one per blob
  // and pixel.  The factored value differs from exact_value by rounding
  // alone (kTruncationSlack bounds it); a pixel whose byte that rounding
  // could move is recomputed by exact_value.
  std::vector<std::vector<double>> blob_x(blobs.size());
  std::vector<std::vector<double>> blob_y(blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const Blob& b = blobs[i];
    blob_x[i].resize(static_cast<std::size_t>(width));
    for (int x = 0; x < width; ++x) {
      double dx = x - b.cx;
      blob_x[i][static_cast<std::size_t>(x)] =
          b.amplitude * std::exp(-(dx * dx) / b.two_r2);
    }
    blob_y[i].resize(static_cast<std::size_t>(height));
    for (int y = 0; y < height; ++y) {
      double dy = y - b.cy;
      blob_y[i][static_cast<std::size_t>(y)] = std::exp(-(dy * dy) / b.two_r2);
    }
  }

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
    std::vector<double> row(static_cast<std::size_t>(width));
    std::vector<std::uint64_t> draws(static_cast<std::size_t>(width));
    for (int y = y0; y < y1; ++y) {
      // The row's values in exact_value's term order, each term over the
      // whole row at once.
      const double gradient_y = gy * 60.0 * y / height;
      for (int x = 0; x < width; ++x) {
        row[static_cast<std::size_t>(x)] =
            110.0 + gradient_x[static_cast<std::size_t>(x)] + gradient_y;
      }
      for (std::size_t i = 0; i < blobs.size(); ++i) {
        const double fy = blob_y[i][static_cast<std::size_t>(y)];
        if (fy == 0.0) continue;  // underflowed: adds exactly nothing
        const double* fx = blob_x[i].data();
        for (int x = 0; x < width; ++x) {
          row[static_cast<std::size_t>(x)] += fx[x] * fy;
        }
      }
      for (const Rect& r : rects) {
        if (y < r.y0 || y >= r.y1) continue;
        for (int x = r.x0; x < r.x1; ++x) {
          row[static_cast<std::size_t>(x)] += r.amplitude;
        }
      }
      const double texture_y = std::cos(tex_freq * 0.8 * y);
      for (int x = 0; x < width; ++x) {
        row[static_cast<std::size_t>(x)] +=
            texture_x[static_cast<std::size_t>(x)] * texture_y;
      }
      for (int x = 0; x < width; ++x) {
        const std::uint64_t draw = noise.next_below(2 * kNoise + 1);
        draws[static_cast<std::size_t>(x)] = draw;
        row[static_cast<std::size_t>(x)] += static_cast<double>(draw) - kNoise;
      }
      // A pixel whose byte is the same over [v - slack, v + slack] holds
      // the exact value's byte too; any other is recomputed exactly.
      std::uint8_t* out = &img.at(0, y);
      int undecided = 0;
      for (int x = 0; x < width; ++x) {
        const ByteRange r = byte_range(row[static_cast<std::size_t>(x)]);
        out[x] = static_cast<std::uint8_t>(r.lo);
        undecided |= r.lo ^ r.hi;
      }
      if (undecided == 0) continue;
      for (int x = 0; x < width; ++x) {
        if (!detail::truncation_decided(row[static_cast<std::size_t>(x)])) {
          out[x] = to_pixel(
              exact_value(x, y, draws[static_cast<std::size_t>(x)]));
        }
      }
    }
  });
  return img;
}

}  // namespace avf::wavelet
