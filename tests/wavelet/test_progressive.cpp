#include "wavelet/progressive.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "golden_digest.hpp"
#include "util/rng.hpp"
#include "wavelet/image_oracles.hpp"
#include "wavelet/progressive_oracle.hpp"

namespace avf::wavelet {
namespace {

/// `bytes` as a payload the decoder can hold.
std::shared_ptr<const util::Blob> blob(Bytes bytes) {
  return std::make_shared<const util::Blob>(std::move(bytes));
}

struct Rig {
  Image img = Image::synthetic(128, 128, 17);
  Pyramid pyr{img, 3};
  ProgressiveEncoder enc{pyr, 8};
  ProgressiveDecoder dec{128, 128, 3, 8};
};

Region full_region(const Image& img) {
  return Region{img.width() / 2, img.height() / 2,
                std::max(img.width(), img.height())};
}

TEST(Progressive, FullRegionFullLevelIsLossless) {
  Rig rig;
  Bytes payload = rig.enc.encode_region(full_region(rig.img), 3);
  ASSERT_FALSE(payload.empty());
  rig.dec.apply(blob(payload));
  EXPECT_EQ(rig.dec.reconstruct(3), rig.img);
  EXPECT_TRUE(rig.enc.fully_sent(3));
  EXPECT_DOUBLE_EQ(rig.dec.coverage(3), 1.0);
}

TEST(Progressive, NoRetransmission) {
  Rig rig;
  Region r{64, 64, 32};
  Bytes first = rig.enc.encode_region(r, 2);
  ASSERT_FALSE(first.empty());
  Bytes second = rig.enc.encode_region(r, 2);
  EXPECT_TRUE(second.empty());  // same region, nothing new
}

TEST(Progressive, GrowingFoveaSendsIncrements) {
  Rig rig;
  std::size_t cumulative = 0;
  for (int half = 16; half <= 128; half += 16) {
    Bytes payload = rig.enc.encode_region(Region{64, 64, half}, 3);
    if (!payload.empty()) {
      auto result = rig.dec.apply(blob(payload));
      cumulative += result.coefficients;
    }
  }
  EXPECT_TRUE(rig.enc.fully_sent(3));
  EXPECT_EQ(rig.dec.reconstruct(3), rig.img);
  // Incremental total equals one full transmission (no duplicates).
  EXPECT_EQ(cumulative, rig.dec.coefficients_received());
}

TEST(Progressive, HigherLevelSendsMoreData) {
  Rig a, b;
  Region r{64, 64, 40};
  std::size_t low = a.enc.encode_region(r, 1).size();
  std::size_t high = b.enc.encode_region(r, 3).size();
  EXPECT_GT(high, low);
}

TEST(Progressive, RegionOutsideImageSendsNothing) {
  Rig rig;
  Bytes payload = rig.enc.encode_region(Region{1000, 1000, 8}, 3);
  EXPECT_TRUE(payload.empty());
}

TEST(Progressive, PartialCoverageReconstructsApproximately) {
  Rig rig;
  // Send only the LL + level-1 data for the center region.
  Bytes payload = rig.enc.encode_region(Region{64, 64, 32}, 1);
  rig.dec.apply(blob(payload));
  EXPECT_GT(rig.dec.coverage(1), 0.0);
  EXPECT_LT(rig.dec.coverage(3), 1.0);
  // The reconstruction is not exact but the received center should be
  // closer to the truth than an empty buffer.
  Image recon = rig.dec.reconstruct(3);
  Image empty_recon = ProgressiveDecoder(128, 128, 3, 8).reconstruct(3);
  EXPECT_LT(oracle::mean_abs_diff(recon, rig.img),
            oracle::mean_abs_diff(empty_recon, rig.img));
}

TEST(Progressive, LevelUpgradeAfterFullCoarseSend) {
  Rig rig;
  Bytes coarse = rig.enc.encode_region(full_region(rig.img), 2);
  rig.dec.apply(blob(coarse));
  EXPECT_TRUE(rig.enc.fully_sent(2));
  EXPECT_FALSE(rig.enc.fully_sent(3));
  // Level-2 image is exact now.
  Pyramid ref(rig.img, 3);
  EXPECT_EQ(rig.dec.reconstruct(2), ref.reconstruct(2));
  // Upgrading to level 3 sends only the level-3 detail bands.
  Bytes fine = rig.enc.encode_region(full_region(rig.img), 3);
  rig.dec.apply(blob(fine));
  EXPECT_EQ(rig.dec.reconstruct(3), rig.img);
}

TEST(Progressive, ResetForgetsSentState) {
  Rig rig;
  Region r{64, 64, 32};
  Bytes first = rig.enc.encode_region(r, 2);
  rig.enc.reset();
  Bytes again = rig.enc.encode_region(r, 2);
  EXPECT_EQ(first.size(), again.size());
}

TEST(Progressive, TilesSentMatchesTotalWhenComplete) {
  Rig rig;
  rig.enc.encode_region(full_region(rig.img), 3);
  // Every band of a 128x128, 3-level pyramid in 8x8 tiles: LL 16x16 and
  // the level-1 details (4 tiles each), level 2 (16 each), level 3 (64).
  EXPECT_EQ(rig.enc.tiles_sent(), 4u + 3 * 4 + 3 * 16 + 3 * 64);
}

TEST(Progressive, MalformedPayloadThrows) {
  Rig rig;
  Bytes payload = rig.enc.encode_region(Region{64, 64, 16}, 1);
  ASSERT_GT(payload.size(), 4u);
  Bytes truncated(payload.begin(), payload.begin() + payload.size() / 2);
  EXPECT_THROW(rig.dec.apply(blob(truncated)), std::runtime_error);

  Bytes bad_band = payload;
  bad_band[2] = 0xFF;  // first tile's band id
  ProgressiveDecoder fresh(128, 128, 3, 8);
  EXPECT_THROW(fresh.apply(blob(bad_band)), std::runtime_error);
}

TEST(Progressive, EmptyTilePastBandEdgeThrows) {
  // Band 0 of a 128² 3-level pyramid is 16x16: two 8-pixel tiles across.
  // An empty tile at tx = 2 starts exactly at the band edge; it has no
  // slot in the received-tile map and must be rejected, not recorded.
  for (auto [tx, ty] : {std::pair{2, 1}, std::pair{1, 2}}) {
    Bytes payload = {1, 0,  // one tile
                     0,     // band 0
                     static_cast<std::uint8_t>(tx), 0,
                     static_cast<std::uint8_t>(ty), 0,
                     0, 0};  // w = h = 0
    ProgressiveDecoder dec(128, 128, 3, 8);
    EXPECT_THROW(dec.apply(blob(payload)), std::runtime_error);
  }
}

TEST(Progressive, TileThatIsNotItsGridCellThrows) {
  // Band 0 of a 64² 2-level pyramid is 16x16, four 8x8 cells.  A 16x16
  // tile at (0, 0) fits inside the band but would overwrite all four cells
  // while marking one received; a 4x8 tile is short of a cell that is not
  // at the band edge, and an 8x9 one reaches into the cell below.  The
  // encoder writes none of them.
  for (auto [w, h] : {std::pair{16, 16}, std::pair{4, 8}, std::pair{8, 9}}) {
    Bytes payload = {1, 0, 0, 0, 0, 0, 0, static_cast<std::uint8_t>(w),
                     static_cast<std::uint8_t>(h)};
    payload.resize(payload.size() + std::size_t{2} * w * h, 1);
    ProgressiveDecoder dec(64, 64, 2, 8);
    EXPECT_THROW(dec.apply(blob(payload)), std::runtime_error)
        << w << "x" << h;
    EXPECT_EQ(dec.coverage(0), 0.0);
    EXPECT_EQ(dec.coefficients_received(), 0u);
  }
}

TEST(Progressive, MutatedPayloadsApplyOrThrow) {
  // Seeded mutations of real payloads: each must apply or throw
  // std::runtime_error, never index out of bounds (sanitizer builds).
  Rig rig;
  std::vector<Bytes> seeds;
  for (int level = 1; level <= 3; ++level) {
    seeds.push_back(rig.enc.encode_region(Region{40 * level, 50, 24}, level));
  }
  util::SplitMix64 rng(0x6d757461ULL);  // "muta"
  int applied = 0;
  for (int round = 0; round < 300; ++round) {
    for (const Bytes& seed : seeds) {
      Bytes m = seed;
      switch (rng.next_below(3)) {
        case 0:
          m.resize(rng.next_below(m.size() + 1));
          break;
        case 1:
          m.push_back(static_cast<std::uint8_t>(rng.next()));
          break;
        default:
          for (int flips = 0; flips < 3; ++flips) {
            m[rng.next_below(m.size())] ^=
                static_cast<std::uint8_t>(1u << rng.next_below(8));
          }
          break;
      }
      ProgressiveDecoder dec(128, 128, 3, 8);
      try {
        dec.apply(blob(m));
        ++applied;
      } catch (const std::runtime_error&) {
      }
    }
  }
  EXPECT_GT(applied, 0);  // e.g. flipped coefficient bytes stay valid
}

TEST(Progressive, RejectsBadTileSize) {
  Pyramid pyr(64, 64, 2);
  EXPECT_THROW(ProgressiveEncoder(pyr, 0), std::invalid_argument);
  EXPECT_THROW(ProgressiveDecoder(64, 64, 2, 300), std::invalid_argument);
}

class ProgressiveTileSizes : public ::testing::TestWithParam<int> {};

TEST_P(ProgressiveTileSizes, LosslessAtAnyTileSize) {
  Image img = Image::synthetic(64, 64, 23);
  Pyramid pyr(img, 2);
  ProgressiveEncoder enc(pyr, GetParam());
  ProgressiveDecoder dec(64, 64, 2, GetParam());
  dec.apply(blob(enc.encode_region(Region{32, 32, 64}, 2)));
  EXPECT_EQ(dec.reconstruct(2), img);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, ProgressiveTileSizes,
                         ::testing::Values(1, 3, 8, 16, 17, 64, 255));

// -- take/serialize split (the cacheable decomposition) ------------------

TEST(Progressive, TakeThenSerializeMatchesEncodeRegion) {
  // encode_region must equal serialize_tiles(take_region_tiles(...)) byte
  // for byte across a growing fovea — the identity the region cache rests
  // on.
  Rig via_split, via_encode;
  for (int half = 16; half <= 128; half += 24) {
    Region r{64, 64, half};
    std::vector<TileRef> tiles = via_split.enc.take_region_tiles(r, 3);
    Bytes split_bytes = via_split.enc.serialize_tiles(tiles);
    Bytes direct = via_encode.enc.encode_region(r, 3);
    EXPECT_EQ(split_bytes, direct);
    EXPECT_EQ(tiles.empty(), direct.empty());
  }
  EXPECT_EQ(via_split.enc.tiles_sent(), via_encode.enc.tiles_sent());
}

TEST(Progressive, SerializeTilesIsPure) {
  Rig rig;
  std::vector<TileRef> tiles = rig.enc.take_region_tiles({64, 64, 32}, 2);
  ASSERT_FALSE(tiles.empty());
  std::size_t sent = rig.enc.tiles_sent();
  Bytes first = rig.enc.serialize_tiles(tiles);
  Bytes second = rig.enc.serialize_tiles(tiles);
  EXPECT_EQ(first, second);              // same bytes every time
  EXPECT_EQ(rig.enc.tiles_sent(), sent);  // no sent-state mutation
}

TEST(Progressive, TakeRegionTilesMarksSent) {
  Rig rig;
  Region r{64, 64, 32};
  std::vector<TileRef> first = rig.enc.take_region_tiles(r, 2);
  ASSERT_FALSE(first.empty());
  // Taking the same region again yields nothing: the tiles are spoken for
  // even though serialize_tiles never ran.
  EXPECT_TRUE(rig.enc.take_region_tiles(r, 2).empty());
  EXPECT_TRUE(rig.enc.encode_region(r, 2).empty());
}

// -- lazy bands and decoder reuse ----------------------------------------

/// Band b's coefficients, or nullptr while it is unallocated.
const std::int16_t* band_data(const Pyramid& pyramid, int b) {
  const Band& band = progdetail::band_by_id(pyramid, b);
  return band.coeffs.empty() ? nullptr : band.coeffs.data();
}

TEST(ProgressiveLazy, FreshDecoderIsGeometryOnlyAndReadsZero) {
  ProgressiveDecoder dec(120, 88, 3, 8);
  Pyramid got = dec.assemble();
  for (int b = 0; b < progdetail::band_count(3); ++b) {
    const Band& band = progdetail::band_by_id(got, b);
    EXPECT_GT(band.width * band.height, 0);
    EXPECT_EQ(band_data(got, b), nullptr) << "band " << b;
  }
  for (int level = 0; level <= 3; ++level) {
    Image zero(got.width_at(level), got.height_at(level));
    EXPECT_EQ(dec.reconstruct(level), zero) << "level " << level;
  }
  // The digest folds an unallocated band's zeros: it equals an allocated
  // all-zero pyramid's, and the value pinned before bands were lazy.
  EXPECT_EQ(pyramid_content_hash(dec.assemble()),
            pyramid_content_hash(Pyramid(Image(120, 88), 3)));
  util::Hash128 h = pyramid_content_hash(dec.assemble());
  EXPECT_EQ(h.hi, 0x02e36a442ae518cdULL);
  EXPECT_EQ(h.lo, 0x597ccaa2e70c31a9ULL);
}

TEST(ProgressiveLazy, ZeroWidthTileAllocatesNothing) {
  Bytes payload = {1, 0, 0, 0, 0, 0, 0, 0, 0};  // band 0, cell (0, 0), 0x0
  ProgressiveDecoder dec(64, 64, 2, 8);
  EXPECT_THROW(dec.apply(blob(payload)), std::runtime_error);
  EXPECT_EQ(band_data(dec.assemble(), 0), nullptr);
  EXPECT_EQ(dec.coverage(0), 0.0);
}

TEST(ProgressiveLazy, OnlyBandsThatReceiveTilesAreAllocated) {
  Rig rig;
  rig.dec.apply(blob(rig.enc.encode_region(Region{64, 64, 16}, 1)));
  Pyramid got = rig.dec.assemble();
  for (int b = 0; b < progdetail::band_count(3); ++b) {
    EXPECT_EQ(band_data(got, b) != nullptr,
              progdetail::band_in_level(b, 1))
        << "band " << b;
  }
}

TEST(ProgressiveLazy, ResetDecoderMatchesAFreshOnePerImage) {
  // Image A sends everything; image B only a level-2 corner, so a band A
  // filled and B never touches must read zero again after reset().
  Image a = Image::synthetic(128, 128, 41);
  Image b = Image::synthetic(128, 128, 42);
  Pyramid pa(a, 3), pb(b, 3);
  std::vector<std::pair<const Pyramid*, std::vector<std::pair<Region, int>>>>
      images = {{&pa, {{{64, 64, 24}, 2}, {{64, 64, 128}, 3}}},
                {&pb, {{{100, 20, 16}, 1}, {{100, 20, 40}, 2}}}};
  ProgressiveDecoder reused(128, 128, 3, 8);
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (i > 0) reused.reset();
    ProgressiveDecoder fresh(128, 128, 3, 8);
    ProgressiveEncoder enc(*images[i].first, 8);
    for (auto [region, level] : images[i].second) {
      Bytes payload = enc.encode_region(region, level);
      ProgressiveDecoder::ApplyResult r1 = reused.apply(blob(payload));
      ProgressiveDecoder::ApplyResult r2 = fresh.apply(blob(payload));
      EXPECT_EQ(r1.tiles, r2.tiles);
      EXPECT_EQ(r1.coefficients, r2.coefficients);
    }
    for (int level = 0; level <= 3; ++level) {
      EXPECT_EQ(reused.reconstruct(level), fresh.reconstruct(level))
          << "image " << i << " level " << level;
      EXPECT_EQ(reused.coverage(level), fresh.coverage(level));
    }
    EXPECT_EQ(reused.coefficients_received(), fresh.coefficients_received());
    EXPECT_EQ(pyramid_content_hash(reused.assemble()),
              pyramid_content_hash(fresh.assemble()));
  }
  // B reached level 2 only: its level-3 bands, which A filled, are empty.
  Pyramid got = reused.assemble();
  for (int band = progdetail::band_count(2); band < progdetail::band_count(3);
       ++band) {
    EXPECT_EQ(band_data(got, band), nullptr) << "band " << band;
  }
}

// -- zero-copy receive: the decoder indexes the payloads it holds --------

/// Every band of `got` equals `want`'s: same geometry, and the same
/// coefficients or the same absence of them.
void expect_same_pyramid(const Pyramid& got, const Pyramid& want) {
  ASSERT_EQ(got.full_width(), want.full_width());
  ASSERT_EQ(got.full_height(), want.full_height());
  ASSERT_EQ(got.levels(), want.levels());
  for (int b = 0; b < progdetail::band_count(want.levels()); ++b) {
    const Band& g = progdetail::band_by_id(got, b);
    const Band& w = progdetail::band_by_id(want, b);
    EXPECT_EQ(g.width, w.width) << "band " << b;
    EXPECT_EQ(g.height, w.height) << "band " << b;
    EXPECT_TRUE(g.coeffs == w.coeffs) << "band " << b;
  }
}

/// The decoder agrees with the eager oracle on everything it reports.
void expect_matches_oracle(const ProgressiveDecoder& dec,
                           const oracle::EagerDecoder& eager) {
  expect_same_pyramid(dec.assemble(), eager.pyramid());
  EXPECT_EQ(dec.coefficients_received(), eager.coefficients_received());
  for (int level = 0; level <= dec.levels(); ++level) {
    EXPECT_EQ(dec.coverage(level), eager.coverage(level)) << level;
  }
}

TEST(ProgressiveZeroCopy, CallerDropsItsLastReference) {
  // The decoder's index points into the payloads: once the caller lets go,
  // only the decoder's own reference keeps the bytes alive (the ASan job
  // reads freed memory here if it does not hold them).
  Rig rig;
  oracle::EagerDecoder eager(128, 128, 3, 8);
  for (int half = 16; half <= 64; half += 24) {
    auto payload = blob(rig.enc.encode_region(Region{50, 70, half}, 2));
    eager.apply(*payload);
    rig.dec.apply(std::move(payload));
  }
  // Churn the allocator so freed payload memory would be reused.
  std::vector<Bytes> churn;
  for (int i = 0; i < 64; ++i) churn.emplace_back(4096, 0xA5);
  expect_matches_oracle(rig.dec, eager);
  EXPECT_EQ(rig.dec.reconstruct(2), eager.pyramid().reconstruct(2));
}

TEST(ProgressiveZeroCopy, ResetAndDestructionReleaseEveryPayload) {
  Rig rig;
  auto first = blob(rig.enc.encode_region(Region{64, 64, 16}, 1));
  auto second = blob(rig.enc.encode_region(Region{64, 64, 48}, 3));
  rig.dec.apply(first);
  rig.dec.apply(second);
  EXPECT_EQ(first.use_count(), 2);
  EXPECT_EQ(second.use_count(), 2);
  rig.dec.reset();
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 1);
  expect_matches_oracle(rig.dec, oracle::EagerDecoder(128, 128, 3, 8));
  {
    ProgressiveDecoder dec(128, 128, 3, 8);
    dec.apply(first);
    dec.apply(second);
    EXPECT_EQ(first.use_count(), 2);
  }
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 1);
}

TEST(ProgressiveZeroCopy, LaterPayloadWinsForAResentCell) {
  // Two images of one geometry: the second one's overlapping region
  // replaces cells the first one filled, as the eager copy overwrote them.
  Image a = Image::synthetic(128, 128, 51);
  Image b = Image::synthetic(128, 128, 52);
  Pyramid pa(a, 3), pb(b, 3);
  ProgressiveEncoder ea(pa, 8), eb(pb, 8);
  ProgressiveDecoder dec(128, 128, 3, 8);
  oracle::EagerDecoder eager(128, 128, 3, 8);
  for (Bytes payload : {ea.encode_region({40, 40, 48}, 3),
                        eb.encode_region({72, 72, 40}, 2)}) {
    eager.apply(payload);
    dec.apply(blob(std::move(payload)));
  }
  expect_matches_oracle(dec, eager);
  // Both regions cover all four cells of the 16x16 LL band, so it reads
  // as b's.
  ASSERT_FALSE(pa.ll().coeffs == pb.ll().coeffs);
  EXPECT_TRUE(dec.assemble().ll().coeffs == pb.ll().coeffs);
  // The full region of `a` again: every cell is a's once more.
  ProgressiveEncoder again(pa, 8);
  dec.apply(blob(again.encode_region({64, 64, 128}, 3)));
  EXPECT_EQ(dec.reconstruct(3), a);
}

TEST(ProgressiveZeroCopy, MalformedPayloadKeepsItsEarlierTiles) {
  Rig rig;
  Bytes full = rig.enc.encode_region(full_region(rig.img), 1);
  // Cut inside the third tile: LL is 2x2 cells of 8x8, 7 + 128 bytes each.
  Bytes cut(full.begin(), full.begin() + 2 + 2 * (7 + 128) + 20);
  oracle::EagerDecoder eager(128, 128, 3, 8);
  EXPECT_THROW(eager.apply(cut), std::runtime_error);
  auto payload = blob(cut);
  EXPECT_THROW(rig.dec.apply(payload), std::runtime_error);
  EXPECT_EQ(payload.use_count(), 2);  // two of its tiles are indexed
  payload.reset();
  expect_matches_oracle(rig.dec, eager);
  EXPECT_EQ(rig.dec.coverage(0), 0.5);
  // A payload whose first tile is malformed indexes nothing and is not
  // held.
  Bytes bad = full;
  bad[2] = 0xFF;  // first tile's band id
  auto rejected = blob(bad);
  EXPECT_THROW(rig.dec.apply(rejected), std::runtime_error);
  EXPECT_EQ(rejected.use_count(), 1);
}

TEST(ProgressiveZeroCopy, MatchesTheEagerDecoderOnSeededSequences) {
  // Seeded sequences of partial regions, level changes, re-sends from a
  // reset encoder, re-sends of another image's content, truncated
  // payloads and decoder resets, over geometries with short edge cells.
  struct Geometry {
    int width, height, levels, tile;
  };
  const Geometry geometries[] = {
      {128, 128, 3, 8}, {120, 88, 3, 8}, {64, 64, 2, 3}, {96, 64, 1, 16}};
  util::SplitMix64 rng(0x7a65726fULL);  // "zero"
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(testing::Message() << g.width << "x" << g.height << "/"
                                    << g.levels << "/" << g.tile);
    Pyramid p0(Image::synthetic(g.width, g.height, 61), g.levels);
    Pyramid p1(Image::synthetic(g.width, g.height, 62), g.levels);
    ProgressiveEncoder encoders[] = {ProgressiveEncoder(p0, g.tile),
                                     ProgressiveEncoder(p1, g.tile)};
    ProgressiveDecoder dec(g.width, g.height, g.levels, g.tile);
    oracle::EagerDecoder eager(g.width, g.height, g.levels, g.tile);
    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE(step);
      switch (rng.next_below(8)) {
        case 0:
          dec.reset();
          eager = oracle::EagerDecoder(g.width, g.height, g.levels, g.tile);
          break;
        case 1:
          encoders[rng.next_below(2)].reset();  // its next region re-sends
          break;
        default: {
          ProgressiveEncoder& enc = encoders[rng.next_below(2)];
          Region r{static_cast<int>(rng.next_below(g.width)),
                   static_cast<int>(rng.next_below(g.height)),
                   1 + static_cast<int>(rng.next_below(g.width))};
          Bytes payload = enc.encode_region(
              r, static_cast<int>(rng.next_below(g.levels + 1)));
          if (rng.next_below(6) == 0) {
            payload.resize(rng.next_below(payload.size() + 1));
          }
          bool eager_threw = false, threw = false;
          try {
            eager.apply(payload);
          } catch (const std::runtime_error&) {
            eager_threw = true;
          }
          try {
            dec.apply(blob(std::move(payload)));
          } catch (const std::runtime_error&) {
            threw = true;
          }
          EXPECT_EQ(threw, eager_threw);
          break;
        }
      }
      expect_matches_oracle(dec, eager);
      if (HasFailure()) return;
    }
  }
}

// -- golden wire bytes ---------------------------------------------------

TEST(ProgressiveGolden, SerializedTiles) {
  // A 120x88 image with 3 levels and 8-pixel tiles: LL is 15x11 and the
  // level-3 details are 60x44, so every band ends in partial edge tiles.
  // Detail coefficients are signed, so both halves of the i16 matter.
  Image img = Image::synthetic(120, 88, 31);
  Pyramid pyr(img, 3);
  struct Case {
    Region region;
    int level;
    const char* digest;
  };
  const Case cases[] = {
      {{60, 44, 12}, 0, "256:30d7db851153b8a33318318a9a58e667"},
      {{60, 44, 20}, 1, "1018:de82bced294e93bbe35c59085913731b"},
      // Bottom-right corner: partial edge tiles only.
      {{110, 80, 16}, 2, "744:91c1ecfba0827ac1afcd7c751a2de3fc"},
      // Everything.
      {{60, 44, 120}, 3, "22494:d781f073614704f6028115a2552cac82"},
  };
  for (const Case& c : cases) {
    ProgressiveEncoder enc(pyr, 8);
    std::vector<TileRef> tiles = enc.take_region_tiles(c.region, c.level);
    EXPECT_EQ(golden::digest(enc.serialize_tiles(tiles)), c.digest)
        << "region " << c.region.cx << "," << c.region.cy << ","
        << c.region.half << " level " << c.level;
  }
  // A growing fovea on one encoder: each step serializes only new tiles.
  ProgressiveEncoder enc(pyr, 8);
  std::vector<std::string> steps;
  for (int half = 8; half <= 64; half += 28) {
    steps.push_back(golden::digest(enc.encode_region({30, 70, half}, 3)));
  }
  EXPECT_EQ(steps, (std::vector<std::string>{
                       "3810:9dd45e7b8f44699196b272be7f74fa42",
                       "6908:5d043f2de61e3023d19dfa332b5fde9b",
                       "7505:9f6fdc4b6edfe6ee34ac3a652bbcadb2",
                   }));
}

}  // namespace
}  // namespace avf::wavelet
