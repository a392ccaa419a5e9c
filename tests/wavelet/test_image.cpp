#include "wavelet/image.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <stdexcept>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "golden_digest.hpp"
#include "util/thread_pool.hpp"
#include "wavelet/image_oracles.hpp"

namespace avf::wavelet {
namespace {

using golden::digest;

TEST(Image, ConstructsZeroed) {
  Image img(8, 4);
  EXPECT_EQ(img.width(), 8);
  EXPECT_EQ(img.height(), 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 8; ++x) EXPECT_EQ(img.at(x, y), 0);
  }
}

TEST(Image, ConstructorRejectsNegativeSize) {
  const int sizes[][2] = {{-1, -1}, {-1, 2}, {2, -1}, {INT_MIN, INT_MIN}};
  for (const auto& s : sizes) {
    EXPECT_THROW((void)Image(s[0], s[1]), std::invalid_argument)
        << s[0] << "x" << s[1];
  }
  // 0 x 0 stays valid: the default constructor makes it.
  EXPECT_EQ(Image(0, 0), Image());
  EXPECT_EQ(Image(0, 3).size_bytes(), 0u);
}

TEST(Image, SyntheticIsDeterministic) {
  Image a = Image::synthetic(64, 64, 42);
  Image b = Image::synthetic(64, 64, 42);
  EXPECT_EQ(a, b);
}

TEST(Image, SyntheticVariesWithSeed) {
  Image a = Image::synthetic(64, 64, 1);
  Image b = Image::synthetic(64, 64, 2);
  EXPECT_NE(a, b);
}

TEST(Image, SyntheticHasContrast) {
  Image img = Image::synthetic(128, 128, 3);
  int lo = 255, hi = 0;
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) {
      lo = std::min<int>(lo, img.at(x, y));
      hi = std::max<int>(hi, img.at(x, y));
    }
  }
  EXPECT_GT(hi - lo, 60);  // not a flat image
}

TEST(Image, SyntheticRejectsEmptyOrNegativeSize) {
  const int sizes[][2] = {{0, 5}, {5, 0}, {0, 0}, {-1, 5}, {5, -1},
                          {INT_MIN, INT_MIN}};
  for (const auto& s : sizes) {
    EXPECT_THROW((void)Image::synthetic(s[0], s[1], 1), std::invalid_argument)
        << s[0] << "x" << s[1];
  }
}

TEST(Image, MeanAbsDiffZeroForIdentical) {
  Image a = Image::synthetic(32, 32, 5);
  EXPECT_EQ(oracle::mean_abs_diff(a, a), 0.0);
}

TEST(Image, MeanAbsDiffDimensionMismatchThrows) {
  Image a(4, 4), b(8, 8);
  EXPECT_THROW((void)oracle::mean_abs_diff(a, b), std::invalid_argument);
}

TEST(Image, DownsampleAveragesBlocks) {
  Image img(4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      img.at(x, y) = static_cast<std::uint8_t>(x < 2 ? 100 : 200);
    }
  }
  Image half = oracle::downsample(img, 2);
  EXPECT_EQ(half.width(), 2);
  EXPECT_EQ(half.at(0, 0), 100);
  EXPECT_EQ(half.at(1, 0), 200);
}

TEST(Image, DownsampleRejectsBadFactor) {
  Image img(6, 6);
  EXPECT_THROW((void)oracle::downsample(img, 4), std::invalid_argument);
  EXPECT_THROW((void)oracle::downsample(img, 0), std::invalid_argument);
}

// -- golden pixels -------------------------------------------------------
//
// Synthetic images are the content every profiled payload and session
// decodes, so one moved pixel moves every perf database and session
// fingerprint.  These pins make a change to Image::synthetic fail here
// first, by name.  Update them only for a deliberate change of the image.

std::string synthetic_digest(int width, int height, std::uint64_t seed) {
  return digest(Image::synthetic(width, height, seed).pixels());
}

TEST(ImageGolden, PaperSessionsCatalog) {
  // The 1024x1024 images at seeds 2026..2032.
  const char* const expected[] = {
      "1048576:f07a88c0dec8dfac71d518c448769111",
      "1048576:d6a4d726575bdc2d3d0b144469d01a8f",
      "1048576:2d28b1290d789075252df45c187ac447",
      "1048576:11fbb4aa598f53cb657825c8d3237652",
      "1048576:db8fde45fedf6dd0ce5de96ed80321dd",
      "1048576:855856691dd09363b3066a5e0653b845",
      "1048576:6cab95fe6db7745bb48189a18a21119e",
  };
  for (std::uint64_t i = 0; i < 7; ++i) {
    EXPECT_EQ(synthetic_digest(1024, 1024, 2026 + i), expected[i])
        << "seed " << 2026 + i;
  }
}

TEST(ImageGolden, Size256) {
  EXPECT_EQ(synthetic_digest(256, 256, 2026),
            "65536:bcd7c51501a380b3a0cf3fa606bf1e66");
}

TEST(ImageGolden, NonSquareAndOddSizes) {
  EXPECT_EQ(synthetic_digest(33, 17, 2026),
            "561:09cf44344e7671e166ed98a9fb083c03");
  EXPECT_EQ(synthetic_digest(100, 7, 2026),
            "700:86dc06a66994c6ef090c7545c4b3d781");
  EXPECT_EQ(synthetic_digest(7, 100, 2026),
            "700:2b21afe859290721f6f1a5a7c3da7dd8");
  EXPECT_EQ(synthetic_digest(1, 1, 2026),
            "1:ce59ad494ef5d8646687e3c0d7f69180");
}

// -- the exact-fallback rule --------------------------------------------
//
// synthetic() keeps a factored pixel value only where every value within
// its rounding slack truncates to the same byte; elsewhere it recomputes
// the exact sum.  No catalog pixel has yet needed the recomputation to
// change, so the goldens cannot see the rule: these points pin it.

TEST(ImageTruncation, UndecidedJustAroundAnInteger) {
  EXPECT_FALSE(detail::truncation_decided(110.0 - 1e-12));
  EXPECT_FALSE(detail::truncation_decided(110.0 + 1e-12));
  EXPECT_FALSE(detail::truncation_decided(110.0));
  EXPECT_FALSE(detail::truncation_decided(1.0 - 1e-12));
  EXPECT_FALSE(detail::truncation_decided(1.0 + 1e-12));
}

TEST(ImageTruncation, DecidedBeyondTheSlack) {
  EXPECT_TRUE(detail::truncation_decided(110.0 - 1e-6));
  EXPECT_TRUE(detail::truncation_decided(110.0 + 1e-6));
  EXPECT_TRUE(detail::truncation_decided(110.5));
  EXPECT_TRUE(detail::truncation_decided(0.5));
  EXPECT_TRUE(detail::truncation_decided(254.5));
}

TEST(ImageTruncation, ClampEdges) {
  // Around 0 both sides clamp or truncate to byte 0.
  EXPECT_TRUE(detail::truncation_decided(-1e-12));
  EXPECT_TRUE(detail::truncation_decided(1e-12));
  EXPECT_TRUE(detail::truncation_decided(-30.0));
  // 255 is reached only by the clamp: just below it truncates to 254.
  EXPECT_FALSE(detail::truncation_decided(255.0 - 1e-12));
  EXPECT_FALSE(detail::truncation_decided(255.0 + 1e-12));
  EXPECT_TRUE(detail::truncation_decided(255.0 + 1e-6));
  EXPECT_TRUE(detail::truncation_decided(256.0 - 1e-12));
  EXPECT_TRUE(detail::truncation_decided(400.0));
}

// -- differential sweep --------------------------------------------------
//
// Image::synthetic against the first, plain form of the generator
// (oracle::synthetic: one serial noise stream, one exp per blob and
// pixel), byte for byte, over sizes that cover one pixel, thin strips,
// odd sizes and images of one and of many row bands.

struct Size {
  int width, height;
};

// Names each case by its size (ctest shows the printed parameter).
void PrintTo(const Size& size, std::ostream* os) {
  *os << size.width << "x" << size.height;
}

class ImageDifferential : public ::testing::TestWithParam<Size> {};

TEST_P(ImageDifferential, MatchesOracleOverSeeds) {
  const auto [width, height] = GetParam();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ASSERT_EQ(Image::synthetic(width, height, seed),
              oracle::synthetic(width, height, seed))
        << width << "x" << height << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ImageDifferential,
    ::testing::Values(Size{1, 1}, Size{3, 3}, Size{7, 100}, Size{100, 7},
                      Size{33, 17}, Size{64, 64}, Size{256, 256},
                      Size{512, 512}, Size{2048, 64}, Size{1024, 768}));

// -- concurrent synthesis ------------------------------------------------
//
// Image::synthetic fans its rows out over a thread pool.  Callers may
// themselves be threads, or tasks of another pool (the viz pyramid memo
// missing on a profiling worker); every result must still be the bytes a
// lone call produces.

constexpr int kThreads = 4;

std::vector<Image> lone_calls() {
  std::vector<Image> out;
  for (int i = 0; i < kThreads; ++i) {
    out.push_back(Image::synthetic(1024, 1024, 2026 + i));
  }
  return out;
}

TEST(ImageConcurrency, PlainThreadsMatchLoneCalls) {
  const std::vector<Image> expected = lone_calls();
  std::vector<Image> got(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&got, i] {
        got[static_cast<std::size_t>(i)] =
            Image::synthetic(1024, 1024, 2026 + i);
      });
    }
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i)])
        << "seed " << 2026 + i;
  }
}

TEST(ImageConcurrency, NestedInParallelForMatchesLoneCalls) {
  const std::vector<Image> expected = lone_calls();
  std::vector<Image> got(kThreads);
  util::parallel_for(kThreads, kThreads, [&got](std::size_t i) {
    got[i] = Image::synthetic(1024, 1024, 2026 + i);
  });
  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "seed " << 2026 + i;
  }
}

}  // namespace
}  // namespace avf::wavelet
