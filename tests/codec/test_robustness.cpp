// Robustness: decompressors must reject corrupted input with an exception
// (never crash, hang, or silently return wrong-sized output).  Single-bit
// and truncation corruption over both codecs.
#include <gtest/gtest.h>

#include "codec/bwt.hpp"
#include "codec/lzw.hpp"
#include "test_inputs.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace avf::codec {
namespace {

using testing::structured_input;

/// Every mutation either throws or yields output that is at most the
/// original: the decoder must stay memory-safe and size-bounded.
template <typename CodecT>
void corruption_sweep(const CodecT& codec, std::uint64_t seed) {
  Bytes input = structured_input(20000, seed);
  Bytes compressed = codec.compress(input);
  util::SplitMix64 rng(seed * 7919 + 1);
  int threw = 0, diverged = 0, survived = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Bytes mutated = compressed;
    std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      Bytes out = codec.decompress(mutated);
      if (out == input) {
        ++survived;  // mutation hit padding / ignored bits
      } else {
        ++diverged;
        // Headers carry the original size; decoders must not fabricate
        // more data than that.
        EXPECT_LE(out.size(), input.size());
      }
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw + diverged + survived, 60);
  EXPECT_GT(threw + diverged, 0);  // corruption is detectable
}

TEST(CodecRobustness, LzwBitFlips) { corruption_sweep(LzwCodec{}, 3); }
TEST(CodecRobustness, BwtBitFlips) { corruption_sweep(BwtCodec{}, 4); }

template <typename CodecT>
void truncation_sweep(const CodecT& codec) {
  Bytes input = structured_input(20000, 11);
  Bytes compressed = codec.compress(input);
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{4},
                           compressed.size() / 4, compressed.size() / 2,
                           compressed.size() - 1}) {
    Bytes truncated(compressed.begin(),
                    compressed.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)codec.decompress(truncated), std::exception)
        << "keep=" << keep;
  }
}

TEST(CodecRobustness, LzwTruncation) { truncation_sweep(LzwCodec{}); }
TEST(CodecRobustness, BwtTruncation) { truncation_sweep(BwtCodec{}); }

TEST(CodecRobustness, GarbageInputRejected) {
  util::SplitMix64 rng(21);
  LzwCodec lzw;
  BwtCodec bwt;
  for (int trial = 0; trial < 20; ++trial) {
    Bytes garbage(100 + rng.next_below(1000));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    // Any outcome but a crash/hang is fine; wrong-size results are not.
    for (const Codec* codec : {static_cast<const Codec*>(&lzw),
                               static_cast<const Codec*>(&bwt)}) {
      try {
        Bytes out = codec->decompress(garbage);
        (void)out;
      } catch (const std::exception&) {
        // expected in the common case
      }
    }
  }
  SUCCEED();
}

TEST(CodecRobustness, BwtRejectsBlockLengthAboveMaximum) {
  // 281 bytes that declare one 32 MiB block of zeros: a single RUNA/RUNB
  // run under a two-symbol Huffman table, primary index at the end.
  // compress never writes a block above kMaxBlockSize; decoding this one
  // would cost about 7 bytes of memory per declared byte.
  constexpr std::uint32_t kDeclared = 32u << 20;
  static_assert(kDeclared > BwtCodec::kMaxBlockSize);
  std::vector<std::uint16_t> run;
  for (std::uint32_t r = kDeclared; r > 0;) {
    std::uint32_t digit = r % 2 == 0 ? 2 : 1;  // bijective base 2
    run.push_back(static_cast<std::uint16_t>(digit - 1));  // RUNB or RUNA
    r = (r - digit) / 2;
  }
  std::vector<std::uint8_t> lengths;
  Bytes packed =
      bwtdetail::huffman_encode_sym(run, bwtdetail::kRle0Alphabet, lengths);
  Bytes stream;
  for (std::uint32_t field :
       {kDeclared, kDeclared, kDeclared, static_cast<std::uint32_t>(run.size()),
        static_cast<std::uint32_t>(packed.size())}) {
    util::put_u32(stream, field);  // total, block_len, primary, counts
  }
  stream.insert(stream.end(), lengths.begin(), lengths.end());
  stream.insert(stream.end(), packed.begin(), packed.end());
  ASSERT_EQ(stream.size(), 281u);
  EXPECT_THROW((void)BwtCodec().decompress(stream), std::runtime_error);
}

TEST(CodecRobustness, BwtRejectsZeroBlockLength) {
  Bytes stream = BwtCodec().compress(Bytes{1, 2, 3});
  stream[4] = stream[5] = stream[6] = stream[7] = 0;  // block_len
  EXPECT_THROW((void)BwtCodec().decompress(stream), std::runtime_error);
}

}  // namespace
}  // namespace avf::codec
