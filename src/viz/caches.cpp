#include "viz/caches.hpp"

namespace avf::viz {

namespace {

// Domain seeds keep the two key spaces disjoint inside a shared store even
// when their input byte streams coincide.
constexpr std::uint64_t kRegionSeed = 0x7265676eULL;  // "regn"
constexpr std::uint64_t kChunkSeed = 0x63686e6bULL;   // "chnk"

}  // namespace

RegionEncodeCache::RegionEncodeCache()
    : owned_store_(std::make_unique<TileStore>()), store_(owned_store_.get()) {}

std::shared_ptr<const util::Blob> RegionEncodeCache::encode(
    const util::Hash128& pyramid_content,
    const wavelet::ProgressiveEncoder& encoder,
    std::span<const wavelet::TileRef> tiles, std::uint64_t origin_tag) {
  // Incremental key derivation: no per-request buffer, no copy of the tile
  // list — the hot-path fix for the old std::string key.
  util::Hasher128 h(kRegionSeed);
  h.update_u64(pyramid_content.hi);
  h.update_u64(pyramid_content.lo);
  h.update_u32(static_cast<std::uint32_t>(encoder.tile_size()));
  for (const wavelet::TileRef& t : tiles) {
    h.update_u8(t.band);
    h.update_u16(t.tx);
    h.update_u16(t.ty);
  }
  // Serialization happens outside any lock (inside the store's build
  // callback): two threads may race to fill the same key, in which case
  // both produce byte-identical payloads and the first insert wins.
  TileStore::Lookup result = store_->get_or_build(
      h.finish(), origin_tag, [&] { return encoder.serialize_tiles(tiles); });
  (result.hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  if (result.collision) collisions_.fetch_add(1, std::memory_order_relaxed);
  return result.payload;
}

RegionEncodeCache& RegionEncodeCache::global() {
  static RegionEncodeCache cache(TileStore::global());
  return cache;
}

CompressedChunkCache::CompressedChunkCache()
    : owned_store_(std::make_unique<TileStore>()), store_(owned_store_.get()) {}

std::shared_ptr<const util::Blob> CompressedChunkCache::compress(
    codec::CodecId id, codec::BytesView raw, std::uint64_t origin_tag) {
  // Hash the raw bytes in place: one read-only pass replaces the old
  // key-string allocation that copied the whole chunk per lookup.
  util::Hasher128 h(kChunkSeed);
  h.update_u8(static_cast<std::uint8_t>(id));
  h.update_u64(raw.size());
  h.update(raw.data(), raw.size());
  TileStore::Lookup result = store_->get_or_build(
      h.finish(), origin_tag,
      [&] { return codec::codec_for(id).compress(raw); });
  (result.hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  if (result.collision) collisions_.fetch_add(1, std::memory_order_relaxed);
  return result.payload;
}

CompressedChunkCache& CompressedChunkCache::global() {
  static CompressedChunkCache cache(TileStore::global());
  return cache;
}

}  // namespace avf::viz
