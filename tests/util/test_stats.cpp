#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>

#include "util/rng.hpp"

namespace avf::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, MeanMinMaxSum) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(TimeWindow, EvictsOldSamples) {
  TimeWindow w(1.0);
  w.add(0.0, 1.0);
  w.add(0.5, 2.0);
  w.add(2.0, 3.0);  // horizon 1.0: samples before t=1.0 evicted
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.samples().back().second, 3.0);
}

/// Number of samples with time >= `t`.
std::size_t count_since(const TimeWindow& w, double t) {
  std::size_t n = 0;
  for (const auto& [time, value] : w.samples()) n += time >= t ? 1 : 0;
  return n;
}

class TimeWindowHorizonTest : public ::testing::TestWithParam<double> {};

TEST_P(TimeWindowHorizonTest, KeepsOnlySamplesInsideHorizon) {
  double horizon = GetParam();
  TimeWindow w(horizon);
  for (int i = 0; i <= 100; ++i) w.add(0.1 * i, 1.0);
  // All retained samples must be within the horizon of the newest (t=10).
  for (const auto& [t, v] : w.samples()) {
    EXPECT_GE(t, 10.0 - horizon - 1e-12);
  }
  EXPECT_FALSE(w.empty());
}

INSTANTIATE_TEST_SUITE_P(Horizons, TimeWindowHorizonTest,
                         ::testing::Values(0.05, 0.5, 1.0, 3.7, 20.0));

TEST(TimeWindowTest, MeanSinceFiltersOldSamples) {
  TimeWindow w(10.0);
  w.add(0.0, 100.0);
  w.add(1.0, 100.0);
  w.add(5.0, 2.0);
  w.add(6.0, 4.0);
  auto m = w.stats_since(4.0);
  ASSERT_TRUE(m);
  EXPECT_DOUBLE_EQ(m->mean, 3.0);
  EXPECT_EQ(m->first_time, 5.0);
  EXPECT_EQ(m->count, 2u);
  EXPECT_EQ(count_since(w, 4.0), 2u);
  // Cutoff exactly on a sample time includes that sample.
  EXPECT_DOUBLE_EQ(w.stats_since(5.0)->mean, 3.0);
  EXPECT_DOUBLE_EQ(w.stats_since(-100.0)->mean,
                   (100.0 + 100.0 + 2.0 + 4.0) / 4.0);
}

TEST(TimeWindowTest, MeanSinceEmptyOrAllStale) {
  TimeWindow w(10.0);
  EXPECT_FALSE(w.stats_since(0.0).has_value());
  w.add(1.0, 5.0);
  EXPECT_FALSE(w.stats_since(2.0).has_value());
  EXPECT_EQ(count_since(w, 2.0), 0u);
  EXPECT_TRUE(w.stats_since(1.0).has_value());
}

TEST(CompensatedSum, KeepsWhatAPlainSumDrops) {
  CompensatedSum s;
  double plain = 0.0;
  for (double x : {1e17, 1.0, -1e17}) {
    s.add(x);
    plain += x;
  }
  EXPECT_EQ(plain, 0.0);
  EXPECT_EQ(s.value(), 1.0);
  s.sub(1.0);
  EXPECT_EQ(s.value(), 0.0);
  s.add(3.0);
  s.reset();
  EXPECT_EQ(s.value(), 0.0);
}

// --- stats_since vs an exact oldest->newest oracle -------------------------

/// Exact oldest->newest Neumaier left-fold over the qualifying suffix,
/// written out by hand: the computation stats_since must reproduce bit for
/// bit.  The monitor's trigger verdicts, and so every adaptation trace,
/// read that mean.
std::optional<double> oracle_mean_since(const TimeWindow& w, double t) {
  double sum = 0.0, comp = 0.0;
  std::size_t n = 0;
  for (const auto& [time, value] : w.samples()) {
    if (time < t) continue;
    const double x = value;
    const double next = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      comp += (sum - next) + x;
    } else {
      comp += (x - next) + sum;
    }
    sum = next;
    ++n;
  }
  if (n == 0) return std::nullopt;
  return (sum + comp) / static_cast<double>(n);
}

// Fuzz stats_since against the oracle: random sample streams with stale
// bursts (time jumps past the horizon without new samples), mixed value
// magnitudes to stress the compensation, and query cutoffs that land
// before, inside, and after the retained suffix.  Equality is EXACT
// (EXPECT_EQ on doubles): any drift at all is a bug.
TEST(TimeWindow, SuffixFoldMatchesExactRescanUnderFuzz) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SplitMix64 rng(seed);
    TimeWindow w(1.0);
    double now = 0.0;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t action = rng.next_below(10);
      if (action < 6) {
        // Sample: small forward step; values span 9 orders of magnitude.
        now += 0.01 + 0.1 * rng.next_double();
        const double magnitude = rng.next_below(2) == 0 ? 1e-3 : 1e6;
        w.add(now, magnitude * rng.next_double());
      } else if (action < 7) {
        // Stale burst: time lurches past the horizon with no samples, so
        // the deque retains entries older than any fresh query's cutoff.
        now += 1.0 + 2.0 * rng.next_double();
      } else {
        // Query at a cutoff around the window edge (occasionally beyond
        // every retained sample).
        const double cutoff = now - 1.0 + 1.5 * (rng.next_double() - 0.25);
        auto got = w.stats_since(cutoff);
        auto want = oracle_mean_since(w, cutoff);
        ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed;
        if (want) {
          EXPECT_EQ(got->mean, *want) << "seed " << seed << " step " << step;
          EXPECT_EQ(got->count, count_since(w, cutoff));
          EXPECT_GE(got->first_time, cutoff);
        }
      }
    }
    // A cutoff below every sample folds the whole deque.
    if (!w.empty()) {
      auto want = oracle_mean_since(w, -1.0);
      ASSERT_TRUE(want.has_value());
      auto whole = w.stats_since(-1.0);
      ASSERT_TRUE(whole.has_value());
      EXPECT_EQ(whole->mean, *want);
      EXPECT_EQ(whole->count, w.size());
    }
  }
}

}  // namespace
}  // namespace avf::util
