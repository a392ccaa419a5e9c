// Progressive foveal transmission of a wavelet pyramid (paper §2.1):
// "the server transmits an area of the image that corresponds to the user's
// fovea, starting from the coarsest resolution and progressing up to the
// user-preferred resolution", never resending data the client already has.
//
// Each band is divided into fixed-size coefficient tiles; the encoder keeps
// per-session sent-state and serializes only the tiles that (a) intersect
// the requested foveal square mapped into band coordinates and (b) have not
// been sent yet.  The decoder copies no coefficient on receipt: it co-owns
// each payload it is given and indexes it, one pointer per cell of every
// band's tile grid to that tile's first coefficient byte (null = not
// received).  assemble() builds a Pyramid from the index on demand, with
// unreceived cells, and bands with no received cell, reading as zero (the
// band invariant, haar.hpp).  It can reconstruct a best-effort image at any
// time.
//
// Payload format (little-endian, read and written through util/bytes.hpp):
//   u16 tile_count
//   repeated: u8 band_id | u16 tile_x | u16 tile_y | u8 w | u8 h |
//             w*h x i16 coefficients, row-major
// band_id 0 = LL; 1 + 3*(k-1) + orientation for detail level k.  A tile is
// one cell of its band's tile grid: it starts at (tile_x, tile_y) * tile
// inside the band, and w = min(tile, band width - x0), h = min(tile, band
// height - y0), so only cells at the right and bottom edges are short.
// The decoder rejects any other header, then takes the tile's 2*w*h
// coefficient bytes with one bounds check.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/blob.hpp"
#include "util/hash.hpp"
#include "wavelet/haar.hpp"

namespace avf::wavelet {

using Bytes = std::vector<std::uint8_t>;

/// Content fingerprint of a pyramid: a seeded 128-bit digest over its
/// geometry and every band's coefficients in band-id order.  Two pyramid
/// *objects* decomposed from identical images digest identically, which is
/// what lets the content-addressed tile store share serialized regions
/// across catalog images that happen to contain the same data (the old
/// pointer-keyed cache could not).  Pure function of the pyramid's
/// contents; callers memoize it per stored image (O(coefficients) walk).
util::Hash128 pyramid_content_hash(const Pyramid& pyramid);

/// Rectangular foveal request in full-resolution pixel coordinates.
struct Region {
  int cx = 0;
  int cy = 0;
  int half = 0;  // half-size: the square spans [cx-half, cx+half)
};

/// Identity of one coefficient tile inside a pyramid: band id + tile grid
/// coordinates.  A sorted TileRef list fully determines the serialized
/// payload for a given (pyramid, tile_size), which is what makes region
/// encodes cacheable across sessions.
struct TileRef {
  std::uint8_t band = 0;
  std::uint16_t tx = 0;
  std::uint16_t ty = 0;

  friend bool operator==(const TileRef&, const TileRef&) = default;
};

class ProgressiveEncoder {
 public:
  explicit ProgressiveEncoder(const Pyramid& pyramid, int tile_size = 16);

  /// Serialize all not-yet-sent tiles needed to show `region` at
  /// resolution `level`, marking them sent.  Empty result = nothing new.
  /// Equivalent to serialize_tiles(take_region_tiles(region, level)).
  Bytes encode_region(const Region& region, int level);

  /// Sent-state half of encode_region: mark all not-yet-sent tiles
  /// intersecting `region` at `level` as sent and return them in
  /// serialization order.  Empty result = nothing new.
  std::vector<TileRef> take_region_tiles(const Region& region, int level);

  /// Pure serialization half of encode_region: payload bytes for `tiles`
  /// against this encoder's pyramid.  Does not touch sent-state, so the
  /// same tile list always yields the same bytes — cache-safe.
  Bytes serialize_tiles(std::span<const TileRef> tiles) const;

  /// True once every tile of every band used by `level` has been sent.
  bool fully_sent(int level) const;

  /// Forget all sent-state (new client session).
  void reset();

  std::size_t tiles_sent() const { return tiles_sent_; }

  int tile_size() const { return tile_; }

 private:
  const Pyramid& pyramid_;
  int tile_;
  // sent_[band_id][tile_index]
  std::vector<std::vector<bool>> sent_;
  std::size_t tiles_sent_ = 0;
};

class ProgressiveDecoder {
 public:
  ProgressiveDecoder(int width, int height, int levels, int tile_size = 16);

  struct ApplyResult {
    std::size_t tiles = 0;
    std::size_t coefficients = 0;
  };

  /// Integrate a payload produced by ProgressiveEncoder::encode_region:
  /// validate every tile header and index the tile's coefficient bytes in
  /// place.  Once one of its tiles is indexed, `payload` is held until
  /// reset() or destruction.  A later tile for the same cell replaces the
  /// earlier one.  Throws std::runtime_error on malformed input (truncated,
  /// trailing bytes, a bad band id or a tile that is not a cell of its
  /// band's grid); tiles before the malformed one stay applied.  A null or
  /// empty payload applies nothing.
  ApplyResult apply(std::shared_ptr<const util::Blob> payload);

  /// Forget every received tile and release every held payload, as a fresh
  /// decoder of the same geometry would.
  void reset();

  int width() const { return geometry_.full_width(); }
  int height() const { return geometry_.full_height(); }
  int levels() const { return geometry_.levels(); }

  /// The pyramid received so far, built from the index: a band with at
  /// least one received cell holds all its coefficients, with unreceived
  /// cells zero; a band with none holds no coefficients.  O(received
  /// coefficients) per call.
  Pyramid assemble() const;

  /// Best-effort reconstruction with whatever has arrived (missing
  /// coefficients read as zero).
  Image reconstruct(int level) const { return assemble().reconstruct(level); }

  /// Fraction of tiles received among the bands used by `level`.
  double coverage(int level) const;

  std::size_t coefficients_received() const { return coefficients_; }

 private:
  Pyramid geometry_;  // geometry only: its bands hold no coefficients
  int tile_;
  // cells_[first_cell_[b] + ty * tiles_x + tx]: the first coefficient byte
  // of band b's tile (tx, ty) inside a held payload, or null.
  std::vector<std::size_t> first_cell_;
  std::vector<const std::uint8_t*> cells_;
  std::vector<std::shared_ptr<const util::Blob>> held_;
  std::size_t coefficients_ = 0;
};

namespace progdetail {

/// Band count for a pyramid with `levels` levels (LL + 3 per level).
int band_count(int levels);

/// Geometry of band `band_id` within `pyramid`.
const Band& band_by_id(const Pyramid& pyramid, int band_id);
Band& band_by_id(Pyramid& pyramid, int band_id);

/// Scale factor from full-resolution coordinates to this band's grid.
int band_scale(const Pyramid& pyramid, int band_id);

/// Whether `band_id` participates in reconstruction at `level`.
bool band_in_level(int band_id, int level);

}  // namespace progdetail

}  // namespace avf::wavelet
