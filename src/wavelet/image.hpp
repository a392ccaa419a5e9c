// 8-bit grayscale image and deterministic synthetic image generation.
//
// The paper's server stores "large images"; we have no image corpus in this
// environment, so images are generated procedurally (smooth gradients +
// blobs + texture + hard edges) from a seed.  The mix matters: smooth areas
// make wavelet detail coefficients sparse and compressible, edges keep the
// data non-trivial, so codec ratios are realistic rather than degenerate.
//
// Determinism: each pixel is a pure function of (seed, x, y).  The seed's
// SplitMix64 stream first draws the scene (5 + 4*blobs + 5*rects draws:
// gradient, blob count, blobs, rect count, rects, texture frequency);
// pixel (x, y)'s noise is then draw 5 + 4*blobs + 5*rects + y*width + x,
// one draw per pixel.  SplitMix64 reaches any draw in O(1) (skip), so
// synthetic() fills bands of rows on a thread pool, each band from its
// own generator, and the bytes do not depend on the thread count or on
// how the bands interleave.  Each pixel is the byte of one per-pixel sum
// in one operand order; synthetic() computes the blob terms in factored
// form and recomputes that exact sum wherever rounding could move the
// byte (detail::truncation_decided).
#pragma once

#include <cstdint>
#include <vector>

namespace avf::wavelet {

class Image {
 public:
  Image() = default;
  /// A zeroed width x height image; throws std::invalid_argument when
  /// either size is negative (0 x 0 is the empty image).
  Image(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  std::size_t size_bytes() const { return pixels_.size(); }

  std::uint8_t at(int x, int y) const {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  std::uint8_t& at(int x, int y) {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  const std::vector<std::uint8_t>& pixels() const { return pixels_; }

  bool operator==(const Image&) const = default;

  /// Deterministic synthetic test image.  Throws std::invalid_argument
  /// when width or height is below 1.  Rows are built in bands of about
  /// 2^16 pixels through util::parallel_for: on a pool hired for the call,
  /// or inline on the calling thread when the image is one band or the
  /// caller is itself a pool worker.
  static Image synthetic(int width, int height, std::uint64_t seed);

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

namespace detail {

/// True when every value within synthetic()'s rounding slack (1e-9) of
/// `v` becomes the same byte (clamp to [0, 255], then truncate): a value
/// computed in a differently rounded form then gives the byte of the exact
/// form.  False near an integer in [1, 255].
bool truncation_decided(double v);

}  // namespace detail

}  // namespace avf::wavelet
