#include "wavelet/haar.hpp"

#include <gtest/gtest.h>

#include "wavelet/image_oracles.hpp"

namespace avf::wavelet {
namespace {

TEST(Pyramid, GeometryChecks) {
  Image img = Image::synthetic(64, 64, 1);
  EXPECT_THROW(Pyramid(img, 0), std::invalid_argument);
  EXPECT_THROW(Pyramid(img, 13), std::invalid_argument);
  EXPECT_THROW(Pyramid(img, 7), std::invalid_argument);  // 64 % 128 != 0
  EXPECT_NO_THROW(Pyramid(img, 6));
}

TEST(Pyramid, BandDimensions) {
  Image img = Image::synthetic(128, 64, 2);
  Pyramid pyr(img, 3);
  EXPECT_EQ(pyr.ll().width, 16);
  EXPECT_EQ(pyr.ll().height, 8);
  EXPECT_EQ(pyr.detail(1, Orientation::kLH).width, 16);
  EXPECT_EQ(pyr.detail(2, Orientation::kLH).width, 32);
  EXPECT_EQ(pyr.detail(3, Orientation::kLH).width, 64);
  EXPECT_THROW(pyr.detail(0, Orientation::kLH), std::out_of_range);
  EXPECT_THROW(pyr.detail(4, Orientation::kLH), std::out_of_range);
}

TEST(Pyramid, WidthAtLevels) {
  Image img = Image::synthetic(256, 256, 3);
  Pyramid pyr(img, 4);
  EXPECT_EQ(pyr.width_at(0), 16);
  EXPECT_EQ(pyr.width_at(4), 256);
}

TEST(Pyramid, FullReconstructionIsLossless) {
  Image img = Image::synthetic(128, 128, 7);
  for (int levels : {1, 2, 4}) {
    Pyramid pyr(img, levels);
    Image back = pyr.reconstruct(levels);
    EXPECT_EQ(back, img) << "levels=" << levels;
  }
}

TEST(Pyramid, LosslessOnNonSquareImages) {
  Image img = Image::synthetic(256, 64, 9);
  Pyramid pyr(img, 3);
  EXPECT_EQ(pyr.reconstruct(3), img);
}

TEST(Pyramid, CoarseLevelsApproximateDownsampling) {
  Image img = Image::synthetic(256, 256, 11);
  Pyramid pyr(img, 3);
  // Level 2 = half resolution; Haar averaging is close to block averaging.
  Image level2 = pyr.reconstruct(2);
  Image ref = oracle::downsample(img, 2);
  EXPECT_EQ(level2.width(), ref.width());
  EXPECT_LT(oracle::mean_abs_diff(level2, ref), 2.0);
}

TEST(Pyramid, ConstantImageHasZeroDetails) {
  Image img(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) img.at(x, y) = 77;
  }
  Pyramid pyr(img, 3);
  for (int k = 1; k <= 3; ++k) {
    for (auto o : {Orientation::kLH, Orientation::kHL, Orientation::kHH}) {
      for (auto c : pyr.detail(k, o).coeffs) EXPECT_EQ(c, 0);
    }
  }
  for (auto c : pyr.ll().coeffs) EXPECT_EQ(c, 77);
}

TEST(Pyramid, EmptyPyramidReconstructsBlack) {
  Pyramid pyr(64, 64, 3);
  Image img = pyr.reconstruct(3);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) EXPECT_EQ(img.at(x, y), 0);
  }
}

TEST(Pyramid, ReconstructRangeChecks) {
  Pyramid pyr(32, 32, 2);
  EXPECT_THROW((void)pyr.reconstruct(-1), std::out_of_range);
  EXPECT_THROW((void)pyr.reconstruct(3), std::out_of_range);
}

class PyramidLossless : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PyramidLossless, RoundTripManySeeds) {
  Image img = Image::synthetic(64, 64, GetParam());
  Pyramid pyr(img, 4);
  EXPECT_EQ(pyr.reconstruct(4), img);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PyramidLossless,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace avf::wavelet
