#include "viz/caches.hpp"

namespace avf::viz {

namespace {

// Domain seeds keep the key spaces disjoint inside a shared store even
// when their input byte streams coincide.
constexpr std::uint64_t kRegionSeed = 0x7265676eULL;  // "regn"
constexpr std::uint64_t kChunkSeed = 0x63686e6bULL;   // "chnk"
constexpr std::uint64_t kSizeSeed = 0x73697a65ULL;    // "size"

}  // namespace

CacheLayer::CacheLayer(TileStore::Options options)
    : owned_store_(std::make_unique<TileStore>(options)),
      store_(owned_store_.get()) {}

std::shared_ptr<const util::Blob> RegionEncodeCache::encode(
    const util::Hash128& pyramid_content,
    const wavelet::ProgressiveEncoder& encoder,
    std::span<const wavelet::TileRef> tiles, std::uint64_t origin_tag) {
  // Incremental key derivation: no per-request buffer, no copy of the tile
  // list.
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
  // callback); a second caller of the same key waits for the first's.
  return get_or_build(h.finish(), origin_tag,
                      [&] { return encoder.serialize_tiles(tiles); });
}

std::shared_ptr<const util::Blob> CompressedChunkCache::compress(
    codec::CodecId id, codec::BytesView raw, std::uint64_t origin_tag) {
  // Hash the raw bytes in place: one read-only pass, no key buffer.
  util::Hasher128 h(kChunkSeed);
  h.update_u8(static_cast<std::uint8_t>(id));
  h.update_u64(raw.size());
  h.update(raw.data(), raw.size());
  return get_or_build(h.finish(), origin_tag,
                      [&] { return codec::codec_for(id).compress(raw); });
}

CompressedSizeCache::CompressedSizeCache()
    : CacheLayer(TileStore::Options{.byte_budget = 8 * kMaxPrivateEntries}) {}

TileStore::Key CompressedSizeCache::key(codec::CodecId id,
                                        std::uint64_t raw_size,
                                        std::uint64_t raw_fnv1a) {
  util::Hasher128 h(kSizeSeed);
  h.update_u8(static_cast<std::uint8_t>(id));
  h.update_u64(raw_size);
  h.update_u64(raw_fnv1a);
  return h.finish();
}

std::size_t CompressedSizeCache::compressed_size(codec::CodecId id,
                                                 const util::Blob& raw,
                                                 CompressedChunkCache* chunks,
                                                 std::uint64_t origin_tag) {
  // The entry is the size as 8 bytes, least significant first.
  auto measure = [&] {
    const std::uint64_t size =
        chunks != nullptr ? chunks->compress(id, raw, origin_tag)->size()
                          : codec::codec_for(id).compress(raw).size();
    TileStore::Payload entry(8);
    for (std::size_t i = 0; i < 8; ++i) {
      entry[i] = static_cast<std::uint8_t>(size >> (8 * i));
    }
    return entry;
  };
  const TileStore::BlobPtr entry = get_or_build(
      key(id, raw.size(), raw.fnv1a64(util::kFnv1aOffset)), origin_tag,
      measure);
  std::uint64_t size = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    size |= std::uint64_t{entry->data()[i]} << (8 * i);
  }
  return static_cast<std::size_t>(size);
}

}  // namespace avf::viz
