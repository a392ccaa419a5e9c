// util::Blob's memoized FNV-1a continuation must equal the plain byte loop
// for every length and seed, first call or memo hit, from any thread.
#include "util/blob.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "viz/caches.hpp"

namespace avf::util {
namespace {

std::vector<std::uint8_t> random_bytes(SplitMix64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

std::uint64_t reference(const Blob& blob, std::uint64_t seed) {
  return util::fnv1a64(blob.data(), blob.size(), seed);
}

TEST(Blob, HoldsTheBytesItWasGiven) {
  std::vector<std::uint8_t> bytes = {3, 1, 4, 1, 5};
  Blob blob(bytes);
  EXPECT_EQ(blob.bytes(), bytes);
  EXPECT_EQ(blob.size(), 5u);
  EXPECT_FALSE(blob.empty());
  std::span<const std::uint8_t> view = blob;  // contiguous, no copy
  EXPECT_EQ(view.data(), blob.data());
  EXPECT_EQ(view.size(), blob.size());
  EXPECT_TRUE(Blob(std::vector<std::uint8_t>{}).empty());
}

TEST(Blob, EmptyBlobHashIsTheSeed) {
  Blob blob(std::vector<std::uint8_t>{});
  for (std::uint64_t seed : {std::uint64_t{0}, kFnv1aOffset,
                             std::uint64_t{0xdeadbeefcafef00dULL}}) {
    EXPECT_EQ(blob.fnv1a64(seed), seed);
    EXPECT_EQ(blob.fnv1a64(seed), reference(blob, seed));
  }
}

TEST(Blob, MatchesByteLoopForFixedSeeds) {
  SplitMix64 rng(0x626c6f62ULL);  // "blob"
  std::vector<std::size_t> lengths = {0, 1, 2, 7, 8, 255, 256, 4097};
  for (int i = 0; i < 24; ++i) lengths.push_back(rng.next_below(4098));
  for (std::size_t n : lengths) {
    Blob blob(random_bytes(rng, n));
    for (std::uint64_t seed : {std::uint64_t{0}, kFnv1aOffset,
                               std::uint64_t{1}, ~std::uint64_t{0}}) {
      // First call computes the low byte's residual; the second reads it.
      EXPECT_EQ(blob.fnv1a64(seed), reference(blob, seed)) << "n=" << n;
      EXPECT_EQ(blob.fnv1a64(seed), reference(blob, seed)) << "n=" << n;
    }
  }
}

TEST(Blob, MatchesByteLoopForRandomSeeds) {
  SplitMix64 rng(0x73656564ULL);  // "seed"
  for (int trial = 0; trial < 2000; ++trial) {
    Blob blob(random_bytes(rng, rng.next_below(4098)));
    // Several seeds per Blob, some sharing a low byte with an earlier one:
    // the memo serves a different seed than the one that filled it.
    std::uint64_t seed = rng.next();
    EXPECT_EQ(blob.fnv1a64(seed), reference(blob, seed));
    std::uint64_t same_low = (rng.next() & ~std::uint64_t{0xff}) | (seed & 0xff);
    EXPECT_EQ(blob.fnv1a64(same_low), reference(blob, same_low));
  }
}

TEST(Blob, MatchesByteLoopForEveryLowByte) {
  SplitMix64 rng(0x6c6f7762ULL);  // "lowb"
  for (std::size_t n : {std::size_t{1}, std::size_t{33}, std::size_t{4097}}) {
    Blob blob(random_bytes(rng, n));
    for (std::uint64_t low = 0; low < 256; ++low) {
      std::uint64_t high = rng.next() & ~std::uint64_t{0xff};
      EXPECT_EQ(blob.fnv1a64(low), reference(blob, low));
      EXPECT_EQ(blob.fnv1a64(high | low), reference(blob, high | low));
    }
  }
}

TEST(Blob, ChainsLikeTheByteLoop) {
  // Chaining Blob hashes equals one pass over the concatenated bytes: the
  // client's per-round payload hash relies on this.
  SplitMix64 rng(0x636861696eULL);  // "chain"
  Blob a(random_bytes(rng, 1000));
  Blob b(random_bytes(rng, 37));
  std::vector<std::uint8_t> joined = a.bytes();
  joined.insert(joined.end(), b.bytes().begin(), b.bytes().end());
  EXPECT_EQ(b.fnv1a64(a.fnv1a64(kFnv1aOffset)),
            util::fnv1a64(joined.data(), joined.size()));
}

TEST(Blob, ConcurrentFirstCallsAgree) {
  // Four threads race on the first calls for the same low bytes (run under
  // TSan in CI).  Every result must equal the byte loop.
  SplitMix64 rng(0x72616365ULL);  // "race"
  auto blob = std::make_shared<const Blob>(random_bytes(rng, 4097));
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < 64; ++i) seeds.push_back(rng.next());
  std::vector<std::uint64_t> expected;
  for (std::uint64_t seed : seeds) expected.push_back(reference(*blob, seed));

  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t seed : seeds) got[t].push_back(blob->fnv1a64(seed));
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected);
}

TEST(Blob, SizeCacheFingerprintMatchesBlobContinuation) {
  // The size layer keys a payload by its FNV-1a digest from the Blob's
  // memo; that digest must be the byte loop's, so a Blob and the bytes it
  // holds name one entry.
  SplitMix64 rng(0x66707269ULL);  // "fpri"
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{513},
                        std::size_t{4097}}) {
    std::vector<std::uint8_t> bytes = random_bytes(rng, n);
    const std::uint64_t expected = fnv1a64(bytes.data(), n);
    Blob blob(bytes);
    EXPECT_EQ(blob.fnv1a64(kFnv1aOffset), expected);
    viz::CompressedSizeCache sizes;
    (void)sizes.compressed_size(codec::CodecId::kNone, blob, nullptr);
    EXPECT_TRUE(sizes.store()
                    .get_or_build(viz::CompressedSizeCache::key(
                                      codec::CodecId::kNone, n, expected),
                                  0,
                                  [] {
                                    ADD_FAILURE() << "no entry under the key";
                                    return viz::TileStore::Payload{};
                                  })
                    .hit);
  }
}

}  // namespace
}  // namespace avf::util
