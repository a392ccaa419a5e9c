// bwtdetail::suffix_array (SA-IS) against the prefix-doubling oracle on
// short strings of every length, degenerate and periodic strings that
// drive SA-IS through deep recursion, small i16 coefficient streams, and
// the wavelet blocks the codec actually compresses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/bwt.hpp"
#include "suffix_array_oracle.hpp"
#include "test_inputs.hpp"

namespace avf::codec {
namespace {

using bwtdetail::suffix_array;
using testing::random_bytes;
using testing::suffix_array_prefix_doubling;

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// `copies` copies of `unit`, then `tail`.
Bytes repeat(const std::string& unit, std::size_t copies,
             const std::string& tail = "") {
  std::string s;
  for (std::size_t i = 0; i < copies; ++i) s += unit;
  return to_bytes(s + tail);
}

/// Fibonacci word with at least `min_len` bytes: w(n) = w(n-1) w(n-2).
Bytes fibonacci_word(std::size_t min_len) {
  std::string prev = "a", cur = "ab";
  while (cur.size() < min_len) {
    std::string next = cur + prev;
    prev = std::move(cur);
    cur = std::move(next);
  }
  return to_bytes(cur);
}

void expect_matches_oracle(const Bytes& data, const std::string& what) {
  std::vector<std::uint32_t> sa = suffix_array(data);
  ASSERT_EQ(sa.size(), data.size() + 1) << what;
  EXPECT_EQ(sa.front(), data.size()) << what << ": sentinel suffix first";
  EXPECT_TRUE(sa == suffix_array_prefix_doubling(data)) << what;
}

TEST(SuffixArray, Banana) {
  Bytes s = to_bytes("banana");
  // Suffixes of "banana$": $ a$ ana$ anana$ banana$ na$ nana$
  std::vector<std::uint32_t> sa = suffix_array(s);
  EXPECT_EQ(sa, (std::vector<std::uint32_t>{6, 5, 3, 1, 0, 4, 2}));
}

TEST(SuffixArray, EmptyAndSingle) {
  EXPECT_EQ(suffix_array({}), (std::vector<std::uint32_t>{0}));
  Bytes one = {65};
  EXPECT_EQ(suffix_array(one), (std::vector<std::uint32_t>{1, 0}));
}

TEST(SuffixArray, MatchesOracleOnEveryShortLength) {
  for (int alphabet : {1, 2, 4, 256}) {
    for (std::size_t n = 0; n <= 300; ++n) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        expect_matches_oracle(
            random_bytes(n, n * 7919 + seed, alphabet),
            "alphabet " + std::to_string(alphabet) + " n " +
                std::to_string(n) + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(SuffixArray, MatchesOracleOnRuns) {
  for (std::size_t n : {1u, 2u, 3u, 17u, 300u, 4096u}) {
    for (std::uint8_t b : {0, 1, 255}) {
      expect_matches_oracle(Bytes(n, b), "run of " + std::to_string(n));
    }
  }
  // Runs of different lengths back to back.
  Bytes runs;
  for (std::size_t len = 1; len < 200; ++len) {
    runs.insert(runs.end(), len, static_cast<std::uint8_t>(len % 3));
  }
  expect_matches_oracle(runs, "mixed runs");
}

TEST(SuffixArray, MatchesOracleOnPeriodicStrings) {
  for (std::size_t k : {1u, 2u, 5u, 64u, 1000u, 5000u}) {
    expect_matches_oracle(repeat("ab", k), "(ab)^" + std::to_string(k));
    expect_matches_oracle(repeat("aab", k), "(aab)^" + std::to_string(k));
    expect_matches_oracle(repeat("abcab", k), "(abcab)^" + std::to_string(k));
    expect_matches_oracle(repeat("ba", k, "b"),
                          "(ba)^" + std::to_string(k) + "b");
  }
  for (std::size_t len : {2u, 13u, 100u, 2000u, 20000u}) {
    expect_matches_oracle(fibonacci_word(len),
                          "fibonacci word >= " + std::to_string(len));
  }
}

TEST(SuffixArray, MatchesOracleOnI16Coefficients) {
  // Small-magnitude i16 streams, odd and even lengths, up to and across
  // the codec's 64 KiB block.
  for (std::size_t n : {1u, 2u, 3u, 255u, 256u, 4097u, 65535u, 65536u,
                        65537u}) {
    for (int magnitude : {1, 12, 200}) {
      expect_matches_oracle(
          testing::i16_coefficients(n, n * 31 + magnitude, magnitude),
          "i16 magnitude " + std::to_string(magnitude) + " n " +
              std::to_string(n));
    }
  }
}

TEST(SuffixArray, MatchesOracleOnWaveletBlocks) {
  // The codec's own blocks: 64 KiB slices of a progressive wavelet
  // payload, the last one partial.
  const Bytes& payload = testing::wavelet_payload();
  constexpr std::size_t kBlock = 64 * 1024;
  ASSERT_GT(payload.size(), kBlock);
  for (std::size_t at = 0; at < payload.size(); at += kBlock) {
    std::size_t len = std::min(kBlock, payload.size() - at);
    expect_matches_oracle(Bytes(payload.begin() + at,
                                payload.begin() + at + len),
                          "wavelet block at " + std::to_string(at));
  }
}

}  // namespace
}  // namespace avf::codec
