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
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(TimeWindow, EvictsOldSamples) {
  TimeWindow w(1.0);
  w.add(0.0, 1.0);
  w.add(0.5, 2.0);
  w.add(2.0, 3.0);  // horizon 1.0: samples before t=1.0 evicted
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.latest(), 3.0);
}

TEST(TimeWindow, MeanMinMax) {
  TimeWindow w(10.0);
  w.add(1.0, 4.0);
  w.add(2.0, 8.0);
  w.add(3.0, 6.0);
  EXPECT_DOUBLE_EQ(w.mean(), 6.0);
  EXPECT_DOUBLE_EQ(w.min(), 4.0);
  EXPECT_DOUBLE_EQ(w.max(), 8.0);
}

TEST(TimeWindow, SlopeOfLinearSeries) {
  TimeWindow w(100.0);
  for (int i = 0; i < 10; ++i) {
    w.add(static_cast<double>(i), 3.0 * i + 1.0);
  }
  EXPECT_NEAR(w.slope(), 3.0, 1e-12);
}

TEST(TimeWindow, SlopeDegenerateCases) {
  TimeWindow w(100.0);
  EXPECT_EQ(w.slope(), 0.0);
  w.add(1.0, 5.0);
  EXPECT_EQ(w.slope(), 0.0);  // single sample
  w.add(1.0, 9.0);
  EXPECT_EQ(w.slope(), 0.0);  // zero time spread
}

TEST(Ewma, ConvergesTowardInput) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.5);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
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
  auto m = w.mean_since(4.0);
  ASSERT_TRUE(m);
  EXPECT_DOUBLE_EQ(*m, 3.0);
  EXPECT_EQ(w.count_since(4.0), 2u);
  // Cutoff exactly on a sample time includes that sample.
  EXPECT_DOUBLE_EQ(*w.mean_since(5.0), 3.0);
  EXPECT_DOUBLE_EQ(*w.mean_since(-100.0), (100.0 + 100.0 + 2.0 + 4.0) / 4.0);
}

TEST(TimeWindowTest, MeanSinceEmptyOrAllStale) {
  TimeWindow w(10.0);
  EXPECT_FALSE(w.mean_since(0.0).has_value());
  w.add(1.0, 5.0);
  EXPECT_FALSE(w.mean_since(2.0).has_value());
  EXPECT_EQ(w.count_since(2.0), 0u);
  EXPECT_TRUE(w.mean_since(1.0).has_value());
}

// --- suffix-fold memo: incremental mean vs exact-rescan oracle ------------

/// Exact oldest->newest Neumaier left-fold over the qualifying suffix —
/// the canonical computation the memoized fold claims to reproduce.
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

// Fuzz the fold against the oracle: random sample streams with stale
// bursts (time jumps past the horizon without new samples), mixed value
// magnitudes to stress the compensation, and query cutoffs that land
// before, inside, and after the retained suffix.  Equality is EXACT
// (EXPECT_EQ on doubles): the memo extension is the last step of the
// canonical scan, so any drift at all is a bug.
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
          EXPECT_EQ(got->count, w.count_since(cutoff));
        }
        auto mean = w.mean_since(cutoff);
        ASSERT_EQ(mean.has_value(), want.has_value());
        if (want) {
          EXPECT_EQ(*mean, *want);
        }
      }
    }
    // mean() is the whole-deque fold; it must match the oracle with a
    // cutoff below every sample.
    if (!w.empty()) {
      auto want = oracle_mean_since(w, -1.0);
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(w.mean(), *want);
    }
  }
}

TEST(TimeWindow, RepeatedSuffixQueriesHitTheMemo) {
  TimeWindow w(10.0);
  for (int i = 0; i < 50; ++i) w.add(0.1 * i, 1.0 + i);
  const double cutoff = 1.05;
  auto first = w.stats_since(cutoff);
  ASSERT_TRUE(first);
  const auto after_anchor = w.fold_counters();
  // Same cutoff again and again: answered from the memo, no rescans.
  for (int i = 0; i < 20; ++i) {
    auto again = w.stats_since(cutoff);
    ASSERT_TRUE(again);
    EXPECT_EQ(again->mean, first->mean);
  }
  const auto after_hits = w.fold_counters();
  EXPECT_EQ(after_hits.rescans, after_anchor.rescans);
  EXPECT_GE(after_hits.hits, after_anchor.hits + 20);
  // Appending extends the fold in O(1) instead of invalidating it.
  w.add(5.1, 99.0);
  auto extended = w.stats_since(cutoff);
  ASSERT_TRUE(extended);
  EXPECT_EQ(extended->mean, *oracle_mean_since(w, cutoff));
  const auto after_extend = w.fold_counters();
  EXPECT_GT(after_extend.extends, after_hits.extends);
  EXPECT_EQ(after_extend.rescans, after_hits.rescans);
}

TEST(TimeWindow, ClearResetsTheFold) {
  TimeWindow w(10.0);
  w.add(0.0, 1.0);
  (void)w.stats_since(-1.0);
  w.clear();
  EXPECT_FALSE(w.stats_since(-1.0).has_value());
  w.add(1.0, 7.0);
  auto s = w.stats_since(0.0);
  ASSERT_TRUE(s);
  EXPECT_EQ(s->mean, 7.0);
  EXPECT_EQ(s->first_time, 1.0);
  EXPECT_EQ(s->count, 1u);
}

}  // namespace
}  // namespace avf::util
