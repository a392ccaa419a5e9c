// The process-wide pyramid memo every world reads its catalog from:
// cached_pyramid_entry(size, seed, levels) must equal a pyramid decomposed
// here from a freshly synthesized image, hash for hash and band for band,
// on a first call, on a repeat and under a concurrent first call.  Each
// test asks for a (size, seed) no other test in the binary uses, so its
// first call really is the memo's first build.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "viz/world.hpp"
#include "wavelet/haar.hpp"
#include "wavelet/image.hpp"
#include "wavelet/progressive.hpp"

namespace avf::viz {
namespace {

using wavelet::Band;
using wavelet::Orientation;
using wavelet::Pyramid;

void expect_same_band(const Band& got, const Band& want) {
  EXPECT_EQ(got.width, want.width);
  EXPECT_EQ(got.height, want.height);
  EXPECT_EQ(got.coeffs, want.coeffs);
}

void expect_same_pyramid(const Pyramid& got, const Pyramid& want) {
  ASSERT_EQ(got.levels(), want.levels());
  ASSERT_EQ(got.full_width(), want.full_width());
  ASSERT_EQ(got.full_height(), want.full_height());
  expect_same_band(got.ll(), want.ll());
  for (int k = 1; k <= want.levels(); ++k) {
    for (Orientation o : {Orientation::kLH, Orientation::kHL,
                          Orientation::kHH}) {
      expect_same_band(got.detail(k, o), want.detail(k, o));
    }
  }
}

/// The entry decomposed and hashed here, with no memo.
PyramidEntry fresh_entry(int size, std::uint64_t seed, int levels) {
  PyramidEntry entry;
  entry.pyramid = std::make_shared<const Pyramid>(
      wavelet::Image::synthetic(size, size, seed), levels);
  entry.content_hash = wavelet::pyramid_content_hash(*entry.pyramid);
  return entry;
}

void expect_same_entry(const PyramidEntry& got, const PyramidEntry& want) {
  ASSERT_NE(got.pyramid, nullptr);
  EXPECT_EQ(got.content_hash, want.content_hash);
  expect_same_pyramid(*got.pyramid, *want.pyramid);
}

TEST(WorldMemo, FirstCallEqualsAFreshDecomposition) {
  const PyramidEntry got = cached_pyramid_entry(128, 0x6d656d6f01ULL, 4);
  expect_same_entry(got, fresh_entry(128, 0x6d656d6f01ULL, 4));
}

TEST(WorldMemo, RepeatReturnsTheSamePyramid) {
  const PyramidEntry first = cached_pyramid_entry(64, 0x6d656d6f02ULL, 3);
  const PyramidEntry again = cached_pyramid_entry(64, 0x6d656d6f02ULL, 3);
  EXPECT_EQ(again.pyramid.get(), first.pyramid.get());
  EXPECT_EQ(again.content_hash, first.content_hash);
  expect_same_entry(again, fresh_entry(64, 0x6d656d6f02ULL, 3));
  // Another level count is another key: a new pyramid of the same image.
  const PyramidEntry shallow = cached_pyramid_entry(64, 0x6d656d6f02ULL, 2);
  EXPECT_NE(shallow.pyramid.get(), first.pyramid.get());
  expect_same_entry(shallow, fresh_entry(64, 0x6d656d6f02ULL, 2));
}

TEST(WorldMemo, ConcurrentFirstCallsShareOneEntry) {
  constexpr int kThreads = 4;
  std::array<PyramidEntry, kThreads> got;
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&got, i] {
        got[i] = cached_pyramid_entry(256, 0x6d656d6f03ULL, 4);
      });
    }
  }
  const PyramidEntry want = fresh_entry(256, 0x6d656d6f03ULL, 4);
  for (const PyramidEntry& entry : got) {
    // A racing loser's build is discarded: every caller holds the winner.
    EXPECT_EQ(entry.pyramid.get(), got[0].pyramid.get());
    expect_same_entry(entry, want);
  }
}

}  // namespace
}  // namespace avf::viz
