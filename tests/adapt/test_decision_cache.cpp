#include "adapt/decision_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adapt/scheduler.hpp"
#include "util/rng.hpp"

namespace avf::adapt {
namespace {

using perfdb::PerfDatabase;
using tunable::ConfigPoint;
using tunable::Direction;
using tunable::MetricSchema;
using tunable::QosVector;
using util::SplitMix64;

MetricSchema schema() {
  MetricSchema s;
  s.add("response", Direction::kLowerBetter);
  s.add("quality", Direction::kHigherBetter);
  return s;
}

ConfigPoint cfg(int q, int c) {
  ConfigPoint p;
  p.set("q", q);
  p.set("c", c);
  return p;
}

/// Seeded database over a 3x3 resource grid with SplitMix64-drawn QoS:
/// different seeds exercise different decision structure.
PerfDatabase random_db(std::uint64_t seed) {
  SplitMix64 rng(seed);
  PerfDatabase db({"cpu", "bw"}, schema());
  for (int q = 1; q <= 4; ++q) {
    for (int c = 0; c < 3; ++c) {
      for (double cpu : {0.25, 0.5, 1.0}) {
        for (double bw : {100e3, 400e3, 1e6}) {
          QosVector qos;
          qos.set("response", 0.1 + 5.0 * rng.next_double());
          qos.set("quality", static_cast<double>(q) + rng.next_double());
          db.insert(cfg(q, c), {cpu, bw}, qos);
        }
      }
    }
  }
  return db;
}

PreferenceList prefs() {
  UserPreference fast = maximize_metric("quality", "interactive");
  fast.constraints = {{.metric = "response", .max = 2.0}};
  UserPreference fallback = minimize("response", "fastest");
  return {fast, fallback};
}

ResourceScheduler::Options scheduler_options(
    const std::shared_ptr<DecisionCache>& cache) {
  ResourceScheduler::Options o;
  o.switch_hysteresis = 0.05;
  o.decision_cache = cache;
  return o;
}

// Every cached decision — select and select_with_incumbent, hits and
// misses alike, across schedulers sharing the cache — must be identical to
// an oracle with the same options and no cache, bit for bit (Decision's
// defaulted operator== compares the predicted QosVector doubles exactly).
TEST(DecisionCache, BitExactAgainstUncachedOracle) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    PerfDatabase db = random_db(seed);
    auto cache = std::make_shared<DecisionCache>();
    ResourceScheduler cached_a(db, prefs(), scheduler_options(cache));
    ResourceScheduler cached_b(db, prefs(), scheduler_options(cache));
    ResourceScheduler oracle(db, prefs(), scheduler_options(nullptr));

    const std::vector<ConfigPoint> incumbents{cfg(1, 0), cfg(3, 2), cfg(4, 1)};
    SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int i = 0; i < 200; ++i) {
      // A small value pool makes repeats (cache hits) common.
      const double cpu = 0.2 + 0.2 * static_cast<double>(rng.next_below(4));
      const double bw = 100e3 + 150e3 * static_cast<double>(rng.next_below(5));
      const perfdb::ResourcePoint point{cpu, bw};
      ResourceScheduler& cached = i % 2 == 0 ? cached_a : cached_b;
      if (i % 3 == 0) {
        const ConfigPoint& inc = incumbents[rng.next_below(3)];
        auto got = cached.select_with_incumbent(point, inc);
        auto want = oracle.select_with_incumbent(point, inc);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (want) {
          EXPECT_EQ(*got, *want);
        }
      } else {
        auto got = cached.select(point);
        auto want = oracle.select(point);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (want) {
          EXPECT_EQ(*got, *want);
        }
      }
    }
    auto stats = cache->stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_EQ(stats.evictions, 0u);
  }
}

TEST(DecisionCache, SharedAcrossSchedulersWithEqualFingerprints) {
  PerfDatabase db = random_db(7);
  auto cache = std::make_shared<DecisionCache>();
  ResourceScheduler first(db, prefs(), scheduler_options(cache));
  ResourceScheduler second(db, prefs(), scheduler_options(cache));
  ASSERT_EQ(first.selector_fingerprint(), second.selector_fingerprint());

  auto a = first.select({0.5, 400e3});
  auto stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  auto b = second.select({0.5, 400e3});  // other scheduler, same cache: hit
  stats = cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);
}

TEST(DecisionCache, DifferentOptionsNeverShareEntries) {
  PerfDatabase db = random_db(7);
  auto cache = std::make_shared<DecisionCache>();
  ResourceScheduler plain(db, prefs(), scheduler_options(cache));
  auto hyst = scheduler_options(cache);
  hyst.switch_hysteresis = 0.25;
  ResourceScheduler tighter(db, prefs(), hyst);
  EXPECT_NE(plain.selector_fingerprint(), tighter.selector_fingerprint());

  (void)plain.select({0.5, 400e3});
  (void)tighter.select({0.5, 400e3});
  auto stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);  // distinct fingerprints -> distinct entries
  EXPECT_EQ(stats.misses, 2u);
}

// Inserting into the database bumps its mutation epoch: the next lookup is
// an invalidation-miss and the recomputed decision reflects the new record.
TEST(DecisionCache, EpochInvalidationOnDatabaseInsert) {
  PerfDatabase db = random_db(42);
  auto cache = std::make_shared<DecisionCache>();
  ResourceScheduler cached(db, prefs(), scheduler_options(cache));
  ResourceScheduler oracle(db, prefs(), scheduler_options(nullptr));

  const perfdb::ResourcePoint point{0.5, 400e3};
  auto before = cached.select(point);
  ASSERT_TRUE(before);
  EXPECT_EQ(cache->stats().misses, 1u);

  // A new config that dominates everything at this point.
  QosVector qos;
  qos.set("response", 0.01);
  qos.set("quality", 100.0);
  db.insert(cfg(9, 0), {0.5, 400e3}, qos);

  auto after = cached.select(point);
  ASSERT_TRUE(after);
  EXPECT_EQ(after->config, cfg(9, 0));
  auto want = oracle.select(point);
  ASSERT_TRUE(want);
  EXPECT_EQ(*after, *want);
  auto stats = cache->stats();
  EXPECT_GE(stats.invalidations, 1u);
}

TEST(DecisionCache, BoundedSizeWipesWhenFull) {
  PerfDatabase db = random_db(1);
  auto cache = std::make_shared<DecisionCache>(/*max_entries=*/8);
  ResourceScheduler cached(db, prefs(), scheduler_options(cache));
  ResourceScheduler oracle(db, prefs(), scheduler_options(nullptr));

  for (int i = 0; i < 64; ++i) {
    const perfdb::ResourcePoint point{0.1 + 0.01 * i, 200e3 + 1e3 * i};
    auto got = cached.select(point);
    auto want = oracle.select(point);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want) {
      EXPECT_EQ(*got, *want);
    }
    EXPECT_LE(cache->size(), cache->max_entries());
  }
  auto stats = cache->stats();
  EXPECT_GT(stats.evictions, 0u);
  // Wiped entries still answer correctly when recomputed.
  auto again = cached.select({0.15, 205e3});
  auto want = oracle.select({0.15, 205e3});
  ASSERT_TRUE(again && want);
  EXPECT_EQ(*again, *want);
}

// A cached decision carries exact predictions: a point in the same hash
// bucket as an earlier query (a ~1e-9 relative nudge) is a miss, and its
// decision predicts exactly what the database predicts at that raw point.
TEST(DecisionCache, AttachingCacheForcesExactPredictions) {
  PerfDatabase db = random_db(1);
  auto cache = std::make_shared<DecisionCache>();
  ResourceScheduler cached(db, prefs(), scheduler_options(cache));
  const perfdb::ResourcePoint near{0.37, 275e3};
  const perfdb::ResourcePoint nudged{0.37 * (1.0 + 1e-9), 275e3};
  ASSERT_TRUE(cached.select(near));
  auto decision = cached.select(nudged);
  ASSERT_TRUE(decision);
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(decision->predicted, *db.predict(decision->config, nudged));
}

TEST(DecisionCache, MemoizesEmptyDecisions) {
  PerfDatabase db({"cpu", "bw"}, schema());  // no records
  auto cache = std::make_shared<DecisionCache>();
  ResourceScheduler cached(db, prefs(), scheduler_options(cache));
  EXPECT_FALSE(cached.select({0.5, 400e3}).has_value());
  EXPECT_FALSE(cached.select({0.5, 400e3}).has_value());
  auto stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);  // the nullopt itself was memoized
}

// Fresh copies of a database get fresh uids: a cache shared across copies
// can never serve one copy's decisions to the other (ABA protection).
TEST(DecisionCache, DatabaseCopiesDoNotShareEntries) {
  PerfDatabase db = random_db(7);
  PerfDatabase copy = db;
  EXPECT_NE(db.uid(), copy.uid());

  auto cache = std::make_shared<DecisionCache>();
  ResourceScheduler on_db(db, prefs(), scheduler_options(cache));
  ResourceScheduler on_copy(copy, prefs(), scheduler_options(cache));
  (void)on_db.select({0.5, 400e3});
  (void)on_copy.select({0.5, 400e3});
  auto stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

}  // namespace
}  // namespace avf::adapt
