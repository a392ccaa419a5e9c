// Thin lookup layers over the content-addressed TileStore
// (viz/tile_store.hpp) for the multi-session Active Visualization server.
//
// With many clients foveating many catalog images, the expensive
// server-side work (serializing wavelet tiles, running the real codec) is
// identical whenever the *content* is identical; only per-session
// sent-state differs.  Each layer derives a seeded 128-bit content key
// incrementally (no per-request key buffer) and delegates storage, byte
// budgeting, CLOCK eviction, and pinning to its TileStore:
//
//  - RegionEncodeCache keys on (pyramid *content* hash, tile size, the
//    precise TileRef list).  The tile list is what (region, level,
//    already-sent state class) resolve to, and serialize_tiles is a pure
//    function of (pyramid content, tile size, tiles) — so a hit is
//    byte-identical to the uncached path by construction, across sessions
//    AND across distinct images containing the same data.
//  - CompressedChunkCache keys on (codec id, the raw chunk bytes, hashed
//    in place), so a hit returns the byte-identical compressed output the
//    codec would have produced.
//  - CompressedSizeCache keys on (codec id, the raw payload's length and
//    FNV-1a digest) and stores the compressed size as an 8-byte entry: the
//    premeasured replies ship raw bytes with that wire size.
//
// The region and chunk layers return the store's entry itself, a shared
// immutable util::Blob: the viz server ships that pointer as the reply
// body, so a hit costs neither a copy nor a rehash of the payload.
//
// Each layer keeps its own hit/miss/collision counters (lock-free; the
// store's byte/dedup counters aggregate across layers sharing it).  A
// default-constructed layer owns a private store; a layer constructed on a
// TileStore& shares it.  Nothing here is process-wide: whoever runs the
// worlds owns the layers (ServerCaches in viz/world.hpp is the usual
// bundle) and hands them to each server through VizServer::Options.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "codec/codec.hpp"
#include "util/blob.hpp"
#include "util/hash.hpp"
#include "viz/tile_store.hpp"
#include "wavelet/progressive.hpp"

namespace avf::viz {

/// What every layer shares: its store and its own counters.
class CacheLayer {
 public:
  /// Owns a private TileStore (fresh, attributable state).
  CacheLayer() : CacheLayer(TileStore::Options{}) {}
  /// Layers over `store` (shared with other layers; not owned).
  explicit CacheLayer(TileStore& store) : store_(&store) {}

  TileStore& store() { return *store_; }
  const TileStore& store() const { return *store_; }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t collisions() const {
    return collisions_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const { return store_->evictions(); }
  std::size_t size() const { return store_->unique_entries(); }

 protected:
  /// Owns a private TileStore built with `options`.
  explicit CacheLayer(TileStore::Options options);

  /// The store's get_or_build, counted against this layer.
  template <typename BuildFn>
  TileStore::BlobPtr get_or_build(const TileStore::Key& key,
                                  std::uint64_t origin_tag, BuildFn&& build) {
    TileStore::Lookup result = store_->get_or_build(
        key, origin_tag, std::forward<BuildFn>(build));
    (result.hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    if (result.collision) collisions_.fetch_add(1, std::memory_order_relaxed);
    return std::move(result.payload);
  }

 private:
  std::unique_ptr<TileStore> owned_store_;
  TileStore* store_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> collisions_{0};
};

/// (pyramid content, tile_size, tile list) -> serialized region payload.
class RegionEncodeCache : public CacheLayer {
 public:
  using CacheLayer::CacheLayer;

  /// Serialize `tiles` against `encoder`'s pyramid, reusing a previous
  /// byte-identical serialization of the same content when available.
  /// `pyramid_content` must be wavelet::pyramid_content_hash of the
  /// pyramid `encoder` was built over (the server memoizes it per stored
  /// image); `origin_tag` labels the requester (the server passes the
  /// image id) so the store can count cross-image hits.
  std::shared_ptr<const util::Blob> encode(
      const util::Hash128& pyramid_content,
      const wavelet::ProgressiveEncoder& encoder,
      std::span<const wavelet::TileRef> tiles, std::uint64_t origin_tag = 0);
};

/// (codec id, raw bytes) -> compressed bytes.
class CompressedChunkCache : public CacheLayer {
 public:
  using CacheLayer::CacheLayer;

  /// Compress `raw` with `id`, reusing a previous byte-identical
  /// compression of the same chunk when available.
  std::shared_ptr<const util::Blob> compress(codec::CodecId id,
                                             codec::BytesView raw,
                                             std::uint64_t origin_tag = 0);
};

/// (codec id, raw content) -> compressed size.
class CompressedSizeCache : public CacheLayer {
 public:
  /// Entries a private store holds before it evicts.  Its byte budget is
  /// set from this count: each 8-byte entry is a Blob of about 2 KiB (the
  /// hash memo), so the default payload budget would admit millions.
  static constexpr std::size_t kMaxPrivateEntries = 4096;

  /// Owns a private TileStore of kMaxPrivateEntries entries.
  CompressedSizeCache();
  /// Layers over `store` (shared with other layers; not owned).
  explicit CompressedSizeCache(TileStore& store) : CacheLayer(store) {}

  /// The size `id` compresses `raw` to.  A miss measures it by compressing
  /// through `chunks` when one is given (the chunk layer then counts the
  /// codec work and keeps the compressed bytes), else with the codec.
  std::size_t compressed_size(codec::CodecId id, const util::Blob& raw,
                              CompressedChunkCache* chunks,
                              std::uint64_t origin_tag = 0);

  /// The store key "size of (codec, content)".  Codec id, length and
  /// digest are separate hash fields, so no two (codec, content) pairs
  /// share a key short of a 128-bit collision.  compressed_size passes
  /// raw.fnv1a64(util::kFnv1aOffset), O(1) from the Blob's memo.
  static TileStore::Key key(codec::CodecId id, std::uint64_t raw_size,
                            std::uint64_t raw_fnv1a);
};

}  // namespace avf::viz
