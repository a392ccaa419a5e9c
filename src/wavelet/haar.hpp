// Lossless integer 2-D Haar wavelet (S-transform) and the multi-resolution
// pyramid built from it — the storage format of the visualization server
// ("images are stored at the server as wavelet coefficients", paper §2.1).
//
// 1-D pair transform: a = (x0+x1)>>1, d = x0-x1 (arithmetic shift); inverse
// x0 = a + ((d+1)>>1), x1 = x0 - d.  Exact over integers, so full-level
// reconstruction is bit-identical to the original image.
//
// Pyramid layout for an N x N image with L decomposition levels:
//   level 0        : LL band, (N>>L) x (N>>L)  — coarsest usable image
//   level k (1..L) : detail bands LH/HL/HH of size (N>>(L-k+1)) squared;
//                    combined with the level k-1 image they reconstruct the
//                    level k image of size (N>>(L-k)).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "wavelet/image.hpp"

namespace avf::wavelet {

/// One coefficient band.  Band invariant: `coeffs` holds width * height
/// values row-major, or is empty, and an empty band reads as all zero.
/// at() needs the coefficients.
struct Band {
  int width = 0;
  int height = 0;
  std::vector<std::int16_t> coeffs;

  std::int16_t at(int x, int y) const {
    return coeffs[static_cast<std::size_t>(y) * width + x];
  }
  std::int16_t& at(int x, int y) {
    return coeffs[static_cast<std::size_t>(y) * width + x];
  }
};

enum class Orientation { kLH = 0, kHL = 1, kHH = 2 };

class Pyramid {
 public:
  /// Decompose `image` into `levels` levels.  Image dimensions must be
  /// divisible by 2^levels.
  Pyramid(const Image& image, int levels);

  /// An empty pyramid: geometry only.  Every band records its width and
  /// height and holds no coefficients, so it reads as all zero (the band
  /// invariant) — the geometry of a progressive decoder, whose assemble()
  /// allocates only the bands with a received tile.
  Pyramid(int width, int height, int levels);

  int levels() const { return levels_; }
  int full_width() const { return width_; }
  int full_height() const { return height_; }

  /// Width/height of the image at resolution `level` (0..levels).
  int width_at(int level) const { return width_ >> (levels_ - level); }
  int height_at(int level) const { return height_ >> (levels_ - level); }

  const Band& ll() const { return ll_; }
  Band& ll() { return ll_; }
  /// Detail band for reconstruction level `k` in [1, levels].
  const Band& detail(int k, Orientation o) const;

  /// Reconstruct the image at resolution `level` (0..levels).  With every
  /// coefficient present this is exact; with a partial pyramid (progressive
  /// reception) missing coefficients, and unallocated bands, read as zero.
  Image reconstruct(int level) const;

 private:
  int width_ = 0;
  int height_ = 0;
  int levels_ = 0;
  Band ll_;
  // details_[k-1][orientation]
  std::vector<std::array<Band, 3>> details_;
};

}  // namespace avf::wavelet
