#include "wavelet/haar.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "golden_digest.hpp"
#include "util/rng.hpp"
#include "wavelet/image_oracles.hpp"
#include "wavelet/progressive.hpp"

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

// -- differential sweep --------------------------------------------------
//
// Pyramid against the two-pass transform on a full-size int32 frame
// (oracle::decompose and oracle::reconstruct), coefficient for
// coefficient and pixel for pixel.

struct Size {
  int width, height;
};

/// An image of uniformly random bytes: every coefficient sign and the
/// extremes 0 and 255 occur.
Image random_image(int width, int height, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  Image img(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      img.at(x, y) = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  return img;
}

void expect_bands_match(const Pyramid& pyr, const std::vector<Band>& want,
                        const std::string& what) {
  ASSERT_EQ(static_cast<int>(want.size()),
            progdetail::band_count(pyr.levels()));
  for (int b = 0; b < progdetail::band_count(pyr.levels()); ++b) {
    const Band& got = progdetail::band_by_id(pyr, b);
    EXPECT_EQ(got.width, want[b].width) << what << " band " << b;
    EXPECT_EQ(got.height, want[b].height) << what << " band " << b;
    EXPECT_EQ(got.coeffs, want[b].coeffs) << what << " band " << b;
  }
}

TEST(PyramidDifferential, RandomImagesEveryLevelCount) {
  // Sizes are multiples of 2^5, so levels 1..5 all apply; 32x32 at 5
  // levels leaves a 1x1 LL.
  const Size sizes[] = {{32, 32}, {64, 32}, {32, 96}, {160, 64}, {256, 256}};
  std::uint64_t seed = 1;
  for (const auto& [width, height] : sizes) {
    for (int levels = 1; levels <= 5; ++levels, ++seed) {
      const std::string what = std::to_string(width) + "x" +
                               std::to_string(height) + " levels " +
                               std::to_string(levels);
      Image img = random_image(width, height, seed);
      Pyramid pyr(img, levels);
      expect_bands_match(pyr, oracle::decompose(img, levels), what);
      for (int level = 0; level <= levels; ++level) {
        EXPECT_EQ(pyr.reconstruct(level), oracle::reconstruct(pyr, level))
            << what << " level " << level;
      }
      EXPECT_EQ(pyr.reconstruct(levels), img) << what;
    }
  }
}

TEST(PyramidDifferential, SyntheticImagesMatchOracle) {
  const Size sizes[] = {{64, 64}, {96, 160}, {512, 512}, {1024, 768}};
  for (const auto& [width, height] : sizes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Image img = Image::synthetic(width, height, seed);
      Pyramid pyr(img, 4);
      expect_bands_match(pyr, oracle::decompose(img, 4),
                         std::to_string(width) + "x" + std::to_string(height));
    }
  }
}

TEST(PyramidDifferential, PartialAndOutOfRangeReconstruction) {
  // Arbitrary i16 coefficients (so the lift leaves [0, 255] and clamps),
  // with some bands unallocated, as on a client mid-stream.
  std::uint64_t seed = 100;
  for (int levels = 1; levels <= 4; ++levels) {
    for (int drop = 0; drop < 4; ++drop, ++seed) {
      Pyramid pyr(48 << levels >> 1, 80 << levels >> 1, levels);
      util::SplitMix64 rng(seed);
      for (int b = 0; b < progdetail::band_count(levels); ++b) {
        // drop 0 allocates every band; drop d > 0 leaves the bands with
        // b % 4 == d - 1 unallocated (LL among them when d is 1).
        if (drop > 0 && b % 4 == drop - 1) continue;
        Band& band = progdetail::band_by_id(pyr, b);
        band.coeffs.resize(static_cast<std::size_t>(band.width) *
                           band.height);
        for (std::int16_t& c : band.coeffs) {
          c = static_cast<std::int16_t>(rng.next_below(65536));
        }
      }
      for (int level = 0; level <= levels; ++level) {
        EXPECT_EQ(pyr.reconstruct(level), oracle::reconstruct(pyr, level))
            << "levels " << levels << " drop " << drop << " level " << level;
      }
    }
  }
}

// -- golden coefficients -------------------------------------------------
//
// Every band of the catalog pyramids, as golden digests of its
// coefficients (little-endian i16), in progressive band-id order: LL, then
// LH, HL, HH of levels 1..L.  The last entry is pyramid_content_hash, the
// tile-store key's content part.  A moved coefficient fails here by band.

std::string band_digest(const Band& band) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(band.coeffs.size() * 2);
  for (std::int16_t c : band.coeffs) {
    const auto u = static_cast<std::uint16_t>(c);
    bytes.push_back(static_cast<std::uint8_t>(u));
    bytes.push_back(static_cast<std::uint8_t>(u >> 8));
  }
  return golden::digest(bytes);
}

std::vector<std::string> pyramid_digests(const Pyramid& pyr) {
  std::vector<std::string> out;
  for (int b = 0; b < progdetail::band_count(pyr.levels()); ++b) {
    out.push_back(band_digest(progdetail::band_by_id(pyr, b)));
  }
  util::Hash128 h = pyramid_content_hash(pyr);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  out.emplace_back(buf);
  return out;
}

TEST(PyramidGolden, PaperSessionsCatalog) {
  // The 1024x1024 images at seeds 2026..2032, 4 levels.
  const std::vector<std::vector<std::string>> expected = {
      {
          "8192:b536b85a0b245d68cb9b1d21a1fb67f6",
          "8192:61c5d0b2527dad32883be08004e9c672",
          "8192:2a60e7ce519d34dad286b4fd4e8ef98b",
          "8192:ff85c9fbb99c4ccc428ab9e01bdd59b8",
          "32768:b4ef107a1f15b0b65929f5741f8c29c3",
          "32768:a0386e661ca567c2951165315b87d7e9",
          "32768:c5288de0e233f224dd5334d74c9b25b0",
          "131072:59ab4674ebc051dfbea4412f91e2309c",
          "131072:dec11ae35271b63d724fbe444cb9e57e",
          "131072:1ea91fd1a8f03c6ff99ac9911b1a17cf",
          "524288:e70f465789b6f736a3a7ffc3d45b6dd7",
          "524288:15b742dfb4942da0d330864e2b5e99f6",
          "524288:3757e6750c5a4d3f035909c21b9b425a",
          "cba389834f609dd9c6f9f994ce573bcb",
      },
      {
          "8192:8bc3a44641618ece1738ba22830df463",
          "8192:c0ea1c9f046bcafa276d63ab1acd661e",
          "8192:3cb0f683f5717c1fdafe06d4631a9371",
          "8192:1aa99c4ecee13781a16041a40d4f5f08",
          "32768:4194f1476309c1def5fff9ea1ab4d50a",
          "32768:85150ebc86704e3ed8c71b422e7a2a3e",
          "32768:255770efa908d8448f6c38e8653ef129",
          "131072:f630db6f13ddf43bd9b4958dcbf87f9e",
          "131072:f77feb257a2c4b93df81d08540c0ee3b",
          "131072:525a02b0326f751bf3b796134a2e8a82",
          "524288:bcdd86ac80db5e19a052911d51aae7b9",
          "524288:8d8a1124265160e142b976d864036619",
          "524288:652c89c6c45b5e9910eb0ac0283d238a",
          "d97972edab00c5fafe433437ad7f3a56",
      },
      {
          "8192:dff8419cf1151aa432a330a26260b237",
          "8192:e960c2822d4161701e401604058b712e",
          "8192:9768c92fa981eb6c0585e27d9b694d30",
          "8192:621c6709e7f972f5f2729c6a15462dfc",
          "32768:7801071747d29d92bc0f5d4d7a9d183e",
          "32768:c4af5f0fdaaaacc56dfad606b88ccfba",
          "32768:759768bfc508d9cba50f9ff3fc7bdbc2",
          "131072:6af8b057411b8908835efb685f8842ef",
          "131072:ccb32cb623c8ca8b7cd78c04b7b69b4f",
          "131072:3285a80f1e679d1eb747244657bd2705",
          "524288:b6da16d5d12b5fe86d8fc38ea27bd8be",
          "524288:7e0c5aeffb14063bb1d7af05260f8f49",
          "524288:04fabad072c1c96d53f7647f925e543c",
          "1df8b0e93d1029acc1c4167cd245e91a",
      },
      {
          "8192:50f4142391201ae7ddc4b3a54122bc95",
          "8192:f6f933263945300ef743deb189039b44",
          "8192:b1e38297e363cca93fcbd20e5ff08a8b",
          "8192:0ba2d5639396f70f3652f79aee97bf3e",
          "32768:84110d51f732abd963099cd882385761",
          "32768:ff78e94f8702829c5b399365abe8f20a",
          "32768:0d05a7521eeae3a3e67111d49b522ed6",
          "131072:b4607b5a86d00c791b60f4bc19565b04",
          "131072:fe753a6ec05203e6d058098f6f700e31",
          "131072:ebed8b4b7344846090b6541786f8f703",
          "524288:7ab8ad0e7f0a2beeaede18c7132c8a35",
          "524288:2685f2df552e0a26f4270202b7c19f59",
          "524288:df8d8590e567fb0fd9a9ce283365b751",
          "e40af403286bde05c60f4964ad68af61",
      },
      {
          "8192:fa10300c58d77c82a58e4073e9be2933",
          "8192:d5feed3ce9b0653d69304bf3d8d61b4b",
          "8192:8c2124e6e8d86c3328fed29129481e03",
          "8192:d895fa6fceabc94b0bcdd7198f5f24ed",
          "32768:19339e590f2d2eeadadde65f82700e47",
          "32768:55e5ab8110f64e1ef503e2dd5e58f4dc",
          "32768:bfdc8a0388fd47f86c1558075d201850",
          "131072:ad9913c119348335ed73e60c0787e352",
          "131072:3dd19c5b06dcd7c50bd0fea007a4cfaa",
          "131072:a2bf43abfe88970865816e8e1403b782",
          "524288:c17ac3bcfd50d918b4663b5d0a47f436",
          "524288:f4148b398abc8f8745e526ac17bc7eb8",
          "524288:a31805a5cff7269c0c645e04b41d6f44",
          "c0fb793ddc14e37743d35c0f186897ed",
      },
      {
          "8192:8e1a7c0cef1995be302c298520c1c231",
          "8192:b024d6cbae93f94b2103e3f2fb6c8041",
          "8192:f8eef4492975a2e5262800dff1d1f43a",
          "8192:cc6f49a1016a23eae5eb025155c3cd2e",
          "32768:465c0bc26c1f12abf97079722726f9d8",
          "32768:79b4da4b670234abe33d9661a07ed6b1",
          "32768:708e1372d78e10a51824ee139b19f2e4",
          "131072:88cde814188b84d87540f02f5760571d",
          "131072:02b41ee2fe5214b2740ebb9161871c28",
          "131072:27310110b29907f7a97e16026fc5f2c6",
          "524288:edcc23f39e8ff9488b2fd23ac081fbb3",
          "524288:47640ce342861e901467b04e4613d3ed",
          "524288:ed9442520c36cdd60581862a222998b0",
          "67e35f57c2d10882338d1ff78b8b526b",
      },
      {
          "8192:c04da796906bcf352c5d2892247645b6",
          "8192:05fec6e5e89d6a7fd9f4ccd6036001bb",
          "8192:7e3fa7e7792bc9093d60f44284e0e54c",
          "8192:60d19686d3e47cf00c5256df6beb519a",
          "32768:2d41ba302210c9b2eac628bae66489a1",
          "32768:c7f4788697b513ca3276f15d6df4fc5c",
          "32768:0dcb3bf0a5c463207b302fb8a0f6ce00",
          "131072:86f7d63104048a6a9da052e503af0d05",
          "131072:fdd54f218691e1ffd242f0d637f7f114",
          "131072:8552b2e5014d413f18932ba890c2a829",
          "524288:cfae9ce7f44cc676e69c951aaf5804ab",
          "524288:e9820d6a4bca3227245d445ccbc31f38",
          "524288:424ade6f25ea9103578c8fa677bcd3c7",
          "fe21ec5ec507f5cb1e1f472c7820a95c",
      },
  };
  for (std::uint64_t i = 0; i < 7; ++i) {
    Pyramid pyr(Image::synthetic(1024, 1024, 2026 + i), 4);
    EXPECT_EQ(pyramid_digests(pyr), expected[i]) << "seed " << 2026 + i;
  }
}

TEST(PyramidGolden, Size256) {
  EXPECT_EQ(pyramid_digests(Pyramid(Image::synthetic(256, 256, 2026), 4)),
            (std::vector<std::string>{
                "512:0e5929968bb509a9856c7807a51615c5",
                "512:5971d08fcb5d8f0c7c6e04e11f7d0015",
                "512:f6b740e0ed8cba0d51f745e98e9c276b",
                "512:f7a359acb640840a209536964afff17b",
                "2048:6bf01cd5253208d3532fb0d07ef666ae",
                "2048:a6815f37a1536ba561af0876c6962d02",
                "2048:417162be81b122ce8ad2cf0daf04794e",
                "8192:7ce252cc9c9863480ef5e75ae0d77dcf",
                "8192:e89a3c31b482c1087de2fdc69cec1b44",
                "8192:38b2c1c6fd50a219edd60b1610540433",
                "32768:e3e6150dd29d00ba24e4688705df15e4",
                "32768:6e0e45c1ac1776ce39483b594ea41683",
                "32768:b7749a5a278f9642c2c5a3ace846ac8e",
                "c78c50f0d12cbff8b9e103a997cec574",
            }));
}

TEST(PyramidGolden, NonSquareFiveLevels) {
  // 96x160 at 5 levels: LL is 3x5, so no band is square or a power of two
  // wide.
  EXPECT_EQ(pyramid_digests(Pyramid(Image::synthetic(96, 160, 2026), 5)),
            (std::vector<std::string>{
                "30:7e2f38abc7eb080094de6a8d1134184b",
                "30:e970382536640fdd4f39c86e27bebb1c",
                "30:5eb44d057bbcffc7074d9e19138c91f0",
                "30:b7423f32d5cd5f6996a9613dfa40bc35",
                "120:75ab15918c91c3269c2cbeb1ce4ce341",
                "120:08a54c27df8ef9fbb0926076f30443f2",
                "120:5e6be9a89399243c8bffb3cb86fd078d",
                "480:53c43bd600b2766ac0107fd5b132ebbc",
                "480:e9b078f74c1e54fa9e68d6d7770d393b",
                "480:52a5e0108569f39ef90a1222ea7441b3",
                "1920:b8f7ff3e1913bd494712a05054b0777b",
                "1920:14103f95daf0be432b934b21b77b4095",
                "1920:30d212bbccfb15bc8b4a074b6e077233",
                "7680:55a74b05901737c20fde5878076e9f78",
                "7680:c5dbe27683c2051942ac62ea68e34b13",
                "7680:3d5541b714910c9cfdf97ec31690cab5",
                "a259e2e2a9f70866b55cd0f41aa6b833",
            }));
}

}  // namespace
}  // namespace avf::wavelet
