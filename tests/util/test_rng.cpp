#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace avf::util {
namespace {

/// True when both generators give the same next few draws.
bool same_stream(SplitMix64 a, SplitMix64 b) {
  for (int i = 0; i < 4; ++i) {
    if (a.next() != b.next()) return false;
  }
  return true;
}

TEST(SplitMix64Skip, EqualsThatManyDraws) {
  for (std::uint64_t n : {0ULL, 1ULL, 2ULL, 1000ULL, 1000000ULL}) {
    SplitMix64 drawn(2026);
    for (std::uint64_t i = 0; i < n; ++i) drawn.next();
    SplitMix64 skipped(2026);
    skipped.skip(n);
    EXPECT_TRUE(same_stream(drawn, skipped)) << "n = " << n;
  }
}

TEST(SplitMix64Skip, ComposesAcrossWrapAround) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t cases[][2] = {
      {kMax, 1}, {kMax, kMax}, {kMax - 5, 17}, {1ULL << 63, 1ULL << 63},
      {(1ULL << 63) + 3, (1ULL << 63) - 1}, {0, kMax},
  };
  for (const auto& c : cases) {
    SplitMix64 stepwise(7);
    stepwise.skip(c[0]);
    stepwise.skip(c[1]);
    SplitMix64 once(7);
    once.skip(c[0] + c[1]);  // wraps modulo 2^64, as the state does
    EXPECT_TRUE(same_stream(stepwise, once)) << c[0] << " + " << c[1];
  }
}

TEST(SplitMix64Skip, FullPeriodReturnsToTheStart) {
  // 2^64 draws bring the state back: skip(2^64 - 1) then one draw.
  SplitMix64 wrapped(11);
  wrapped.skip(std::numeric_limits<std::uint64_t>::max());
  wrapped.next();
  EXPECT_TRUE(same_stream(wrapped, SplitMix64(11)));
}

}  // namespace
}  // namespace avf::util
