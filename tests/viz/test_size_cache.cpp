// CompressedSizeCache, the size layer over the TileStore: the compressed
// size of (codec, content) as an 8-byte store entry.
//
// The seed implementation mixed the codec id into a single integer key as
// fingerprint * 0x100000001b3 + id, which collides whenever two payload
// fingerprints differ by a multiple of the prime's modular inverse — the
// cache then silently returned the wrong codec's size.  The layer now folds
// codec id, length and FNV-1a digest into a 128-bit key as separate fields.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "codec/codec.hpp"
#include "util/blob.hpp"
#include "util/hash.hpp"
#include "viz/caches.hpp"
#include "viz/tile_store.hpp"
#include "wavelet/progressive.hpp"

namespace avf::viz {
namespace {

using codec::CodecId;

util::Blob repetitive_payload() {
  std::vector<std::uint8_t> bytes(4096);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((i / 7) % 5);
  }
  return util::Blob(std::move(bytes));
}

TEST(SizeCache, DistinguishesCodecsForSamePayload) {
  CompressedSizeCache cache;
  const util::Blob payload = repetitive_payload();
  for (CodecId id : {CodecId::kNone, CodecId::kLzw, CodecId::kBwt}) {
    EXPECT_EQ(cache.compressed_size(id, payload, nullptr),
              codec::codec_for(id).compress(payload).size());
  }
  // One entry per codec, and each codec keeps being served its own size.
  EXPECT_EQ(cache.size(), 3u);
  for (CodecId id : {CodecId::kNone, CodecId::kLzw, CodecId::kBwt}) {
    EXPECT_EQ(cache.compressed_size(id, payload, nullptr),
              codec::codec_for(id).compress(payload).size());
  }
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(SizeCache, CrossCodecFingerprintCollisionResolved) {
  // The exact collision the seed keying suffered from: with
  //   old_key(f, id) = f * P + id,  P = 0x100000001b3 (odd, so invertible
  //   mod 2^64 with inverse Pinv = 0xce965057aff6957b),
  // the fingerprints f and f + Pinv collide across codec ids 1 and 0:
  //   (f + Pinv) * P + 0 == f * P + 1  (mod 2^64).
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  constexpr std::uint64_t kPrimeInverse = 0xce965057aff6957bULL;
  static_assert(kPrime * kPrimeInverse == 1ULL, "inverse mod 2^64");

  std::uint64_t f1 = 0xdeadbeefcafef00dULL;
  std::uint64_t f2 = f1 + kPrimeInverse;
  ASSERT_EQ(f1 * kPrime + static_cast<std::uint64_t>(CodecId::kLzw),
            f2 * kPrime + static_cast<std::uint64_t>(CodecId::kNone));
  EXPECT_NE(CompressedSizeCache::key(CodecId::kLzw, 64, f1),
            CompressedSizeCache::key(CodecId::kNone, 64, f2));

  // And the layer stores its entry under exactly that key.
  CompressedSizeCache cache;
  const util::Blob payload = repetitive_payload();
  const std::size_t size = cache.compressed_size(CodecId::kLzw, payload,
                                                 nullptr);
  TileStore::BlobPtr entry = cache.store().find(
      CompressedSizeCache::key(CodecId::kLzw, payload.size(),
                               payload.fnv1a64(util::kFnv1aOffset)),
      0);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->size(), 8u);
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stored |= std::uint64_t{entry->data()[i]} << (8 * i);
  }
  EXPECT_EQ(stored, size);
}

TEST(SizeCache, CountsHitsAndMisses) {
  CompressedSizeCache cache;
  const util::Blob payload = repetitive_payload();
  const util::Blob same_bytes(payload.bytes());  // a second Blob, one key
  const std::size_t first = cache.compressed_size(CodecId::kLzw, payload,
                                                  nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.compressed_size(CodecId::kLzw, same_bytes, nullptr), first);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SizeCache, PrivateStoreHoldsABoundedEntryCount) {
  // Each size entry is an 8-byte payload in a ~2 KiB Blob, so a private
  // store is bounded in entries, not in the payload bytes of a region store.
  CompressedSizeCache cache;
  for (std::uint32_t i = 0; i <= CompressedSizeCache::kMaxPrivateEntries;
       ++i) {
    const util::Blob payload(std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)});
    (void)cache.compressed_size(CodecId::kNone, payload, nullptr);
  }
  EXPECT_EQ(cache.size(), CompressedSizeCache::kMaxPrivateEntries);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.misses(), CompressedSizeCache::kMaxPrivateEntries + 1);
}

TEST(SizeCache, MissCompressesThroughTheChunkLayer) {
  CompressedSizeCache sizes;
  CompressedChunkCache chunks;
  const util::Blob payload = repetitive_payload();
  const std::size_t size =
      sizes.compressed_size(CodecId::kBwt, payload, &chunks);
  EXPECT_EQ(chunks.misses(), 1u);
  EXPECT_EQ(chunks.compress(CodecId::kBwt, payload)->size(), size);
  // A size hit does no codec work at all.
  EXPECT_EQ(sizes.compressed_size(CodecId::kBwt, payload, &chunks), size);
  EXPECT_EQ(chunks.hits(), 1u);
  EXPECT_EQ(chunks.misses(), 1u);
}

TEST(SizeCache, SharedStoreNeverServesARegionEntryAsASize) {
  // Size and region layers in one store, fed the same bytes: distinct
  // domain seeds keep every lookup on its own layer's entries.
  TileStore store;
  CompressedSizeCache sizes(store);
  RegionEncodeCache regions(store);
  auto pyramid = std::make_shared<const wavelet::Pyramid>(
      wavelet::Image::synthetic(64, 64, 5), 2);
  const util::Hash128 content = wavelet::pyramid_content_hash(*pyramid);
  wavelet::ProgressiveEncoder encoder(*pyramid, 8);
  std::vector<wavelet::TileRef> tiles =
      encoder.take_region_tiles({32, 32, 16}, 2);
  ASSERT_FALSE(tiles.empty());

  std::shared_ptr<const util::Blob> region =
      regions.encode(content, encoder, tiles);
  const std::size_t size =
      sizes.compressed_size(CodecId::kLzw, *region, nullptr);
  EXPECT_EQ(size, codec::codec_for(CodecId::kLzw).compress(*region).size());
  EXPECT_EQ(sizes.misses(), 1u);
  EXPECT_EQ(sizes.hits(), 0u);
  EXPECT_EQ(store.unique_entries(), 2u);
  // Each layer hits only its own entry.
  EXPECT_EQ(regions.encode(content, encoder, tiles).get(), region.get());
  EXPECT_EQ(sizes.compressed_size(CodecId::kLzw, *region, nullptr), size);
  EXPECT_EQ(regions.hits(), 1u);
  EXPECT_EQ(sizes.hits(), 1u);
  EXPECT_EQ(store.unique_entries(), 2u);
}

}  // namespace
}  // namespace avf::viz
