#include "wavelet/progressive.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/fmt.hpp"

namespace avf::wavelet {

namespace progdetail {

int band_count(int levels) { return 1 + 3 * levels; }

const Band& band_by_id(const Pyramid& pyramid, int band_id) {
  if (band_id == 0) return pyramid.ll();
  int k = (band_id - 1) / 3 + 1;
  auto o = static_cast<Orientation>((band_id - 1) % 3);
  return pyramid.detail(k, o);
}

Band& band_by_id(Pyramid& pyramid, int band_id) {
  return const_cast<Band&>(
      band_by_id(static_cast<const Pyramid&>(pyramid), band_id));
}

int band_scale(const Pyramid& pyramid, int band_id) {
  if (band_id == 0) return 1 << pyramid.levels();
  int k = (band_id - 1) / 3 + 1;
  return 1 << (pyramid.levels() - k + 1);
}

bool band_in_level(int band_id, int level) {
  if (band_id == 0) return true;
  int k = (band_id - 1) / 3 + 1;
  return k <= level;
}

namespace {

int tiles_across(int extent, int tile) { return (extent + tile - 1) / tile; }

struct TileRange {
  int tx0, ty0, tx1, ty1;  // half-open tile-index rectangle
};

/// Tiles of `band` (scale `scale`) touched by `region`; empty range when
/// the region misses the band entirely.
TileRange tiles_for_region(const Band& band, int scale, const Region& region,
                           int tile) {
  int x0 = std::max(0, region.cx - region.half);
  int y0 = std::max(0, region.cy - region.half);
  int x1 = region.cx + region.half;
  int y1 = region.cy + region.half;
  // Map to band coordinates (round outward).
  int bx0 = x0 / scale;
  int by0 = y0 / scale;
  int bx1 = std::min((x1 + scale - 1) / scale, band.width);
  int by1 = std::min((y1 + scale - 1) / scale, band.height);
  if (bx0 >= bx1 || by0 >= by1) return {0, 0, 0, 0};
  return {bx0 / tile, by0 / tile, tiles_across(bx1, tile),
          tiles_across(by1, tile)};
}

}  // namespace
}  // namespace progdetail

using namespace progdetail;

util::Hash128 pyramid_content_hash(const Pyramid& pyramid) {
  // Domain-seeded so pyramid fingerprints can never alias tile-store keys
  // derived from other byte streams.
  util::Hasher128 h(/*seed=*/0x70797261ULL);  // "pyra"
  h.update_u32(static_cast<std::uint32_t>(pyramid.full_width()));
  h.update_u32(static_cast<std::uint32_t>(pyramid.full_height()));
  h.update_u32(static_cast<std::uint32_t>(pyramid.levels()));
  int bands = band_count(pyramid.levels());
  for (int b = 0; b < bands; ++b) {
    const Band& band = band_by_id(pyramid, b);
    h.update_u32(static_cast<std::uint32_t>(band.width));
    h.update_u32(static_cast<std::uint32_t>(band.height));
    // Coefficients fold LSB-first via the typed update, keeping the digest
    // identical on any host endianness.  An unallocated band folds its
    // zeros, so it digests exactly as an allocated all-zero band.
    if (band.coeffs.empty()) {
      for (int i = 0; i < band.width * band.height; ++i) h.update_u16(0);
    }
    for (std::int16_t c : band.coeffs) {
      h.update_u16(static_cast<std::uint16_t>(c));
    }
  }
  return h.finish();
}

ProgressiveEncoder::ProgressiveEncoder(const Pyramid& pyramid, int tile_size)
    : pyramid_(pyramid), tile_(tile_size) {
  if (tile_size < 1 || tile_size > 255) {
    throw std::invalid_argument("tile size must be in [1, 255]");
  }
  reset();
}

void ProgressiveEncoder::reset() {
  int bands = band_count(pyramid_.levels());
  sent_.assign(static_cast<std::size_t>(bands), {});
  for (int b = 0; b < bands; ++b) {
    const Band& band = band_by_id(pyramid_, b);
    sent_[b].assign(static_cast<std::size_t>(tiles_across(band.width, tile_)) *
                        tiles_across(band.height, tile_),
                    false);
  }
  tiles_sent_ = 0;
}

std::vector<TileRef> ProgressiveEncoder::take_region_tiles(
    const Region& region, int level) {
  if (level < 0 || level > pyramid_.levels()) {
    throw std::out_of_range(util::format("level {} out of range", level));
  }
  std::vector<TileRef> out;
  for (int b = 0; b < band_count(pyramid_.levels()); ++b) {
    if (!band_in_level(b, level)) continue;
    const Band& band = band_by_id(pyramid_, b);
    int scale = band_scale(pyramid_, b);
    TileRange tr = tiles_for_region(band, scale, region, tile_);
    int tiles_x = tiles_across(band.width, tile_);
    for (int ty = tr.ty0; ty < tr.ty1; ++ty) {
      for (int tx = tr.tx0; tx < tr.tx1; ++tx) {
        std::size_t idx = static_cast<std::size_t>(ty) * tiles_x + tx;
        if (sent_[b][idx]) continue;
        sent_[b][idx] = true;
        ++tiles_sent_;
        out.push_back(TileRef{static_cast<std::uint8_t>(b),
                              static_cast<std::uint16_t>(tx),
                              static_cast<std::uint16_t>(ty)});
      }
    }
  }
  return out;
}

Bytes ProgressiveEncoder::serialize_tiles(
    std::span<const TileRef> tiles) const {
  if (tiles.empty()) return {};
  if (tiles.size() > 0xFFFF) {
    throw std::runtime_error("too many tiles in one reply");
  }
  // The exact reply size first: the reply is allocated once, and each
  // tile row is written in one step.
  std::size_t size = 2;
  for (const TileRef& t : tiles) {
    const Band& band = band_by_id(pyramid_, t.band);
    size += 7 + std::size_t{2} * std::min(tile_, band.width - t.tx * tile_) *
                    std::min(tile_, band.height - t.ty * tile_);
  }
  Bytes out;
  out.reserve(size);
  util::put_u16(out, static_cast<std::uint16_t>(tiles.size()));
  for (const TileRef& t : tiles) {
    const Band& band = band_by_id(pyramid_, t.band);
    int x0 = t.tx * tile_, y0 = t.ty * tile_;
    int w = std::min(tile_, band.width - x0);
    int h = std::min(tile_, band.height - y0);
    out.push_back(t.band);
    util::put_u16(out, t.tx);
    util::put_u16(out, t.ty);
    out.push_back(static_cast<std::uint8_t>(w));
    out.push_back(static_cast<std::uint8_t>(h));
    const auto n = static_cast<std::size_t>(w);
    const std::size_t start = out.size();
    out.resize(start + 2 * n * h);  // zero, as an unallocated band reads
    if (band.coeffs.empty()) continue;
    std::uint8_t* at = out.data() + start;
    const std::int16_t* row =
        &band.coeffs[static_cast<std::size_t>(y0) * band.width + x0];
    for (int y = 0; y < h; ++y, row += band.width, at += 2 * n) {
      util::store_i16s(at, row, n);
    }
  }
  return out;
}

Bytes ProgressiveEncoder::encode_region(const Region& region, int level) {
  return serialize_tiles(take_region_tiles(region, level));
}

bool ProgressiveEncoder::fully_sent(int level) const {
  for (int b = 0; b < band_count(pyramid_.levels()); ++b) {
    if (!band_in_level(b, level)) continue;
    for (bool s : sent_[b]) {
      if (!s) return false;
    }
  }
  return true;
}

ProgressiveDecoder::ProgressiveDecoder(int width, int height, int levels,
                                       int tile_size)
    : pyramid_(width, height, levels), tile_(tile_size) {
  if (tile_size < 1 || tile_size > 255) {
    throw std::invalid_argument("tile size must be in [1, 255]");
  }
  int bands = band_count(levels);
  received_.assign(static_cast<std::size_t>(bands), {});
  for (int b = 0; b < bands; ++b) {
    const Band& band = band_by_id(pyramid_, b);
    received_[b].assign(
        static_cast<std::size_t>(tiles_across(band.width, tile_)) *
            tiles_across(band.height, tile_),
        false);
  }
}

void ProgressiveDecoder::reset() {
  for (int b = 0; b < band_count(pyramid_.levels()); ++b) {
    band_by_id(pyramid_, b).coeffs.clear();  // keeps the capacity
    std::fill(received_[b].begin(), received_[b].end(), false);
  }
  coefficients_ = 0;
}

ProgressiveDecoder::ApplyResult ProgressiveDecoder::apply(
    std::span<const std::uint8_t> payload) {
  ApplyResult result;
  if (payload.empty()) return result;
  util::ByteReader in(payload, "progressive");
  std::uint32_t count = in.u16();
  for (std::uint32_t t = 0; t < count; ++t) {
    int b = in.u8();
    if (b >= band_count(pyramid_.levels())) {
      throw std::runtime_error("progressive: bad band id");
    }
    int tx = in.u16();
    int ty = in.u16();
    int w = in.u8();
    int h = in.u8();
    Band& band = band_by_id(pyramid_, b);
    int x0 = tx * tile_;
    int y0 = ty * tile_;
    // A tile is exactly its grid cell, cut at the band edge: the sizes
    // the encoder writes.  A larger one would overwrite the cells beside
    // it while marking only its own received, and a cell at or past the
    // edge has no slot in the received-tile map.
    if (x0 >= band.width || y0 >= band.height ||
        w != std::min(tile_, band.width - x0) ||
        h != std::min(tile_, band.height - y0)) {
      throw std::runtime_error("progressive: tile is not a grid cell");
    }
    // One bounds check for the whole tile, then rows of i16 LSB-first.
    const std::uint8_t* src = in.take(std::size_t{2} * w * h).data();
    // A band is allocated when its first tile lands (the band invariant:
    // until then it reads as all zero).
    if (band.coeffs.empty()) {
      band.coeffs.resize(static_cast<std::size_t>(band.width) * band.height);
    }
    for (int y = 0; y < h; ++y, src += 2 * w) {
      util::load_i16s(&band.at(x0, y0 + y), src, static_cast<std::size_t>(w));
    }
    int tiles_x = tiles_across(band.width, tile_);
    received_[b][static_cast<std::size_t>(ty) * tiles_x + tx] = true;
    ++result.tiles;
    result.coefficients += static_cast<std::size_t>(w) * h;
  }
  coefficients_ += result.coefficients;
  in.done();
  return result;
}

double ProgressiveDecoder::coverage(int level) const {
  std::size_t have = 0, total = 0;
  for (int b = 0; b < band_count(pyramid_.levels()); ++b) {
    if (!band_in_level(b, level)) continue;
    total += received_[b].size();
    for (bool r : received_[b]) have += r ? 1 : 0;
  }
  return total == 0 ? 0.0 : static_cast<double>(have) / total;
}

}  // namespace avf::wavelet
