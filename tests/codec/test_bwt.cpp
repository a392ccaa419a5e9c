#include "codec/bwt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/lzw.hpp"
#include "test_inputs.hpp"
#include "util/rng.hpp"

namespace avf::codec {
namespace {

using namespace bwtdetail;
using testing::random_bytes;

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(Bwt, ForwardBanana) {
  Bytes s = to_bytes("banana");
  std::uint32_t primary = 0;
  Bytes l = bwt_forward(s, primary);
  EXPECT_EQ(std::string(l.begin(), l.end()), "annbaa");
  EXPECT_EQ(primary, 4u);
}

TEST(Bwt, InverseBanana) {
  Bytes l = to_bytes("annbaa");
  Bytes s = bwt_inverse(l, 4);
  EXPECT_EQ(std::string(s.begin(), s.end()), "banana");
}

TEST(Bwt, RoundTripRandom) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Bytes in = random_bytes(1000 + seed * 137, seed);
    std::uint32_t primary = 0;
    Bytes l = bwt_forward(in, primary);
    EXPECT_EQ(bwt_inverse(l, primary), in);
  }
}

TEST(Bwt, InverseRejectsBadPrimary) {
  Bytes l = to_bytes("annbaa");
  EXPECT_THROW(bwt_inverse(l, 100), std::runtime_error);
}

TEST(Mtf, KnownSequence) {
  Bytes in = {1, 1, 0, 2};
  Bytes enc = mtf_encode(in);
  // 1 at index 1; then 1 at front (0); 0 now at index 1; 2 at index 2.
  EXPECT_EQ(enc, (Bytes{1, 0, 1, 2}));
  EXPECT_EQ(mtf_decode(enc), in);
}

TEST(Mtf, RoundTripRandom) {
  Bytes in = random_bytes(5000, 99);
  EXPECT_EQ(mtf_decode(mtf_encode(in)), in);
}

TEST(Mtf, MatchesByteAtATimeReference) {
  // The encoder searches and shifts 8 entries at a time; every rank, in
  // the first word and past it, must be the plain list's.
  auto reference = [](const Bytes& in) {
    Bytes order(256);
    for (int i = 0; i < 256; ++i) order[i] = static_cast<std::uint8_t>(i);
    Bytes out;
    for (std::uint8_t b : in) {
      auto at = std::find(order.begin(), order.end(), b);
      out.push_back(static_cast<std::uint8_t>(at - order.begin()));
      std::rotate(order.begin(), at, at + 1);
    }
    return out;
  };
  for (int alphabet : {2, 9, 16, 17, 64, 256}) {
    Bytes in = random_bytes(6000, static_cast<std::uint64_t>(alphabet),
                            alphabet);
    EXPECT_EQ(mtf_encode(in), reference(in)) << "alphabet " << alphabet;
  }
  Bytes descending(256);
  for (int i = 0; i < 256; ++i) {
    descending[i] = static_cast<std::uint8_t>(255 - i);
  }
  EXPECT_EQ(mtf_encode(descending), reference(descending));
  Bytes coefficients = testing::i16_coefficients(6001, 5, 200);
  EXPECT_EQ(mtf_encode(coefficients), reference(coefficients));
}

TEST(Rle0, KnownSequence) {
  // A zero run of 3 is RUNA RUNA (1*1 + 1*2); MTF value v >= 1 is v + 1.
  Bytes mtf = {0, 0, 0, 5, 0, 255};
  std::vector<std::uint16_t> symbols = rle0_encode(mtf);
  EXPECT_EQ(symbols, (std::vector<std::uint16_t>{0, 0, 6, 0, 256}));
  EXPECT_EQ(rle0_decode(symbols), mtf);
}

TEST(Rle0, RoundTrip) {
  for (std::size_t run : {1, 2, 3, 4, 7, 8, 255, 256, 1000, 65537}) {
    Bytes zeros(run, 0);
    EXPECT_EQ(rle0_decode(rle0_encode(zeros)), zeros) << "run " << run;
  }
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    // Alphabet 3 gives frequent zero runs; 256 covers every MTF value.
    Bytes mtf = random_bytes(3000, seed, seed % 2 ? 3 : 256);
    std::vector<std::uint16_t> symbols = rle0_encode(mtf);
    for (std::uint16_t s : symbols) ASSERT_LT(s, kRle0Alphabet);
    EXPECT_EQ(rle0_decode(symbols, mtf.size()), mtf);
  }
}

TEST(Rle0, RejectsOutputPastMax) {
  std::vector<std::uint16_t> run10 = rle0_encode(Bytes(10, 0));
  EXPECT_EQ(rle0_decode(run10, 10).size(), 10u);
  EXPECT_THROW(rle0_decode(run10, 9), std::runtime_error);
  const std::vector<std::uint16_t> literals = {2, 2};
  EXPECT_EQ(rle0_decode(literals, 2), (Bytes{1, 1}));
  EXPECT_THROW(rle0_decode(literals, 1), std::runtime_error);
}

TEST(Rle0, RejectsSymbolOutOfRange) {
  EXPECT_EQ(rle0_decode(std::vector<std::uint16_t>{256}), (Bytes{255}));
  EXPECT_THROW(rle0_decode(std::vector<std::uint16_t>{257}),
               std::runtime_error);
  EXPECT_THROW(rle0_decode(std::vector<std::uint16_t>{3, 0xFFFF}),
               std::runtime_error);
}

TEST(Rle0, RejectsRunLengthOverflow) {
  // Sixty RUNA digits claim a run near 2^60; the decoder must stop before
  // the run length wraps, even with no output bound.
  EXPECT_THROW(rle0_decode(std::vector<std::uint16_t>(60, 0)),
               std::runtime_error);
  EXPECT_THROW(rle0_decode(std::vector<std::uint16_t>(60, 1)),
               std::runtime_error);
}

// Huffman code-length assignment over a byte-sized alphabet, through the
// symbol coder the codec uses.
constexpr int kByteAlphabet = 256;

TEST(Huffman, RoundTripSkewed) {
  std::vector<std::uint16_t> in;
  for (int i = 0; i < 1000; ++i) in.push_back(i % 10 == 0 ? 200 : 7);
  std::vector<std::uint8_t> lengths;
  Bytes enc = huffman_encode_sym(in, kByteAlphabet, lengths);
  ASSERT_EQ(lengths.size(), 256u);
  EXPECT_LT(enc.size(), in.size() / 4);
  EXPECT_EQ(huffman_decode_sym(enc, lengths, in.size()), in);
}

TEST(Huffman, SingleSymbolInput) {
  std::vector<std::uint16_t> in(100, 42);
  std::vector<std::uint8_t> lengths;
  Bytes enc = huffman_encode_sym(in, kByteAlphabet, lengths);
  EXPECT_EQ(lengths[42], 1);
  EXPECT_EQ(huffman_decode_sym(enc, lengths, in.size()), in);
}

TEST(Huffman, RoundTripUniform) {
  Bytes bytes = random_bytes(10000, 5);
  std::vector<std::uint16_t> in(bytes.begin(), bytes.end());
  std::vector<std::uint8_t> lengths;
  Bytes enc = huffman_encode_sym(in, kByteAlphabet, lengths);
  EXPECT_EQ(huffman_decode_sym(enc, lengths, in.size()), in);
}

TEST(BwtCodec, RoundTripEmpty) {
  BwtCodec c;
  EXPECT_TRUE(c.decompress(c.compress({})).empty());
}

TEST(BwtCodec, RoundTripText) {
  BwtCodec c;
  std::string s;
  for (int i = 0; i < 500; ++i) s += "the quick brown fox ";
  Bytes in = to_bytes(s);
  Bytes compressed = c.compress(in);
  EXPECT_LT(compressed.size(), in.size() / 5);
  EXPECT_EQ(c.decompress(compressed), in);
}

TEST(BwtCodec, RoundTripI16Coefficients) {
  // The inputs of SuffixArray.MatchesOracleOnI16Coefficients.  The
  // transform of each is also rebuilt from its suffix array row by row.
  BwtCodec c;
  for (std::size_t n : {1u, 2u, 3u, 255u, 256u, 4097u, 65535u, 65536u,
                        65537u}) {
    for (int magnitude : {1, 12, 200}) {
      Bytes in = testing::i16_coefficients(n, n * 31 + magnitude, magnitude);
      EXPECT_EQ(c.decompress(c.compress(in)), in)
          << "magnitude " << magnitude << " n " << n;

      std::uint32_t primary = 0;
      Bytes last = bwt_forward(in, primary);
      Bytes expected;
      std::uint32_t expected_primary = 0;
      std::vector<std::uint32_t> sa = suffix_array(in);
      for (std::size_t i = 0; i < sa.size(); ++i) {
        if (sa[i] == 0) {
          expected_primary = static_cast<std::uint32_t>(i);
        } else {
          expected.push_back(in[sa[i] - 1]);
        }
      }
      EXPECT_EQ(primary, expected_primary) << "n " << n;
      EXPECT_TRUE(last == expected) << "n " << n;
    }
  }
}

TEST(BwtCodec, RoundTripAcrossBlockBoundaries) {
  BwtCodec c(4096);  // small blocks: multiple blocks in one stream
  Bytes in = random_bytes(20000, 3, 16);
  EXPECT_EQ(c.decompress(c.compress(in)), in);
}

TEST(BwtCodec, BeatsLzwOnContextualData) {
  // The paper's premise for compression B: better ratio than A.  BWT
  // exploits byte *context*, so use data with repeated multi-byte motifs
  // (like text or wavelet tiles), not memoryless noise.
  Bytes in;
  util::SplitMix64 rng(11);
  const char* words[] = {"wavelet", "fovea", "resolution", "bandwidth",
                         "adapt"};
  while (in.size() < 60000) {
    const char* w = words[rng.next_below(5)];
    while (*w) in.push_back(static_cast<std::uint8_t>(*w++));
    in.push_back(' ');
  }
  BwtCodec bwt;
  LzwCodec lzw;
  EXPECT_LT(bwt.compress(in).size(), lzw.compress(in).size());
  EXPECT_EQ(bwt.decompress(bwt.compress(in)), in);
}

TEST(BwtCodec, CostsMoreCpuThanLzw) {
  BwtCodec bwt;
  LzwCodec lzw;
  EXPECT_GT(bwt.cost().compress_ops_per_byte,
            5.0 * lzw.cost().compress_ops_per_byte);
  EXPECT_GT(bwt.cost().decompress_ops_per_byte,
            lzw.cost().decompress_ops_per_byte);
}

TEST(BwtCodec, RejectsZeroBlockSize) {
  // A zero block never advances through the input: compress would append
  // empty-block headers until memory ran out.
  EXPECT_THROW(BwtCodec(0), std::invalid_argument);
}

TEST(BwtCodec, RejectsBlockSizeAboveMaximum) {
  EXPECT_THROW(BwtCodec(BwtCodec::kMaxBlockSize + 1), std::invalid_argument);
  EXPECT_THROW(BwtCodec(std::size_t{1} << 32), std::invalid_argument);
  EXPECT_THROW(BwtCodec(SIZE_MAX), std::invalid_argument);
  EXPECT_EQ(BwtCodec(BwtCodec::kMaxBlockSize).block_size(),
            BwtCodec::kMaxBlockSize);
}

TEST(BwtCodec, RoundTripOneByteBlocks) {
  BwtCodec c(1);
  Bytes in = random_bytes(300, 4, 8);
  EXPECT_EQ(c.decompress(c.compress(in)), in);
}

TEST(BwtCodec, TruncatedStreamThrows) {
  BwtCodec c;
  Bytes in = random_bytes(5000, 21, 8);
  Bytes compressed = c.compress(in);
  compressed.resize(compressed.size() - 10);
  EXPECT_THROW(c.decompress(compressed), std::runtime_error);
}

class BwtSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BwtSizes, RoundTrip) {
  BwtCodec c;
  Bytes in = random_bytes(GetParam(), GetParam() + 17, 32);
  EXPECT_EQ(c.decompress(c.compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BwtSizes,
                         ::testing::Values(1, 2, 7, 255, 4096, 65536, 70000,
                                           150000));

}  // namespace
}  // namespace avf::codec
