// The progressive decoder in its first, eager form: every tile's
// coefficients are copied into the pyramid's bands as the payload arrives,
// and a band is allocated, all zero, when its first tile lands.  The
// indexing ProgressiveDecoder must assemble exactly this pyramid, and
// report exactly this coverage and coefficient count, for any sequence of
// payloads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/bytes.hpp"
#include "wavelet/haar.hpp"
#include "wavelet/progressive.hpp"

namespace avf::wavelet::oracle {

class EagerDecoder {
 public:
  EagerDecoder(int width, int height, int levels, int tile_size)
      : pyramid_(width, height, levels), tile_(tile_size) {
    for (int b = 0; b < progdetail::band_count(levels); ++b) {
      const Band& band = progdetail::band_by_id(pyramid_, b);
      received_.emplace_back(static_cast<std::size_t>(cells(band.width)) *
                                 cells(band.height),
                             false);
    }
  }

  /// Same contract as ProgressiveDecoder::apply: throws on the first
  /// malformed tile, with the tiles before it applied.
  ProgressiveDecoder::ApplyResult apply(std::span<const std::uint8_t> payload) {
    ProgressiveDecoder::ApplyResult result;
    if (payload.empty()) return result;
    util::ByteReader in(payload, "progressive");
    std::uint32_t count = in.u16();
    for (std::uint32_t t = 0; t < count; ++t) {
      int b = in.u8();
      if (b >= progdetail::band_count(pyramid_.levels())) {
        throw std::runtime_error("progressive: bad band id");
      }
      int tx = in.u16();
      int ty = in.u16();
      int w = in.u8();
      int h = in.u8();
      Band& band = progdetail::band_by_id(pyramid_, b);
      int x0 = tx * tile_;
      int y0 = ty * tile_;
      if (x0 >= band.width || y0 >= band.height ||
          w != std::min(tile_, band.width - x0) ||
          h != std::min(tile_, band.height - y0)) {
        throw std::runtime_error("progressive: tile is not a grid cell");
      }
      const std::uint8_t* src = in.take(std::size_t{2} * w * h).data();
      if (band.coeffs.empty()) {
        band.coeffs.resize(static_cast<std::size_t>(band.width) *
                           band.height);
      }
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x, src += 2) {
          band.at(x0 + x, y0 + y) =
              static_cast<std::int16_t>(util::load_u16(src));
        }
      }
      received_[b][static_cast<std::size_t>(ty) * cells(band.width) + tx] =
          true;
      ++result.tiles;
      result.coefficients += static_cast<std::size_t>(w) * h;
    }
    coefficients_ += result.coefficients;
    in.done();
    return result;
  }

  const Pyramid& pyramid() const { return pyramid_; }

  double coverage(int level) const {
    std::size_t have = 0, total = 0;
    for (int b = 0; b < progdetail::band_count(pyramid_.levels()); ++b) {
      if (!progdetail::band_in_level(b, level)) continue;
      total += received_[b].size();
      for (bool r : received_[b]) have += r ? 1 : 0;
    }
    return total == 0 ? 0.0 : static_cast<double>(have) / total;
  }

  std::size_t coefficients_received() const { return coefficients_; }

 private:
  int cells(int extent) const { return (extent + tile_ - 1) / tile_; }

  Pyramid pyramid_;
  int tile_;
  std::vector<std::vector<bool>> received_;
  std::size_t coefficients_ = 0;
};

}  // namespace avf::wavelet::oracle
