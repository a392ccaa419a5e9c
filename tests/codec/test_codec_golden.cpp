// Golden digests of the codecs' compressed bytes.  The compressed size of
// every profiled payload sets its simulated wire time, so a kernel change
// that moves one output byte moves every perf database and session
// fingerprint; these pins make it fail here first, by name.  Update them
// only for a deliberate format change.
#include <gtest/gtest.h>

#include "codec/bwt.hpp"
#include "codec/lzw.hpp"
#include "golden_digest.hpp"
#include "test_inputs.hpp"

namespace avf::codec {
namespace {

constexpr std::size_t kBlock = 64 * 1024;

using golden::digest;

TEST(CodecGolden, WaveletPayload) {
  const Bytes& input = testing::wavelet_payload();
  // Several BWT blocks, the last one partial.
  ASSERT_GT(input.size(), 2 * kBlock);
  ASSERT_NE(input.size() % kBlock, 0u);
  EXPECT_EQ(digest(LzwCodec().compress(input)),
            "291759:9631f04f4b6c3b85c43c494993748b32");
  EXPECT_EQ(digest(BwtCodec().compress(input)),
            "251923:6edf081e05fcf5372de566cd610fd0d2");
}

TEST(CodecGolden, StructuredInput) {
  Bytes input = testing::structured_input(200000, 7);
  EXPECT_EQ(digest(LzwCodec().compress(input)),
            "55693:ec387a41666efdd87e8b825a0edd6505");
  EXPECT_EQ(digest(BwtCodec().compress(input)),
            "50587:30cd17db7c47156cb5470ddeb05f7fc5");
}

}  // namespace
}  // namespace avf::codec
