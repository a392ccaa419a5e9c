#include "adapt/scheduler.hpp"

#include <gtest/gtest.h>

namespace avf::adapt {
namespace {

using perfdb::Lookup;
using perfdb::PerfDatabase;
using tunable::ConfigPoint;
using tunable::Direction;
using tunable::MetricSchema;
using tunable::QosVector;

MetricSchema schema() {
  MetricSchema s;
  s.add("transmit_time", Direction::kLowerBetter);
  s.add("resolution", Direction::kHigherBetter);
  return s;
}

ConfigPoint cfg(int c, int l) {
  ConfigPoint p;
  p.set("c", c);
  p.set("l", l);
  return p;
}

QosVector q(double transmit, double resolution) {
  QosVector out;
  out.set("transmit_time", transmit);
  out.set("resolution", resolution);
  return out;
}

/// Database modeling the compression crossover: config A (c=1) is faster
/// at high bandwidth, config B (c=2) at low bandwidth; low resolution
/// (l=3) is always fast but low quality.
PerfDatabase crossover_db() {
  PerfDatabase db({"bw"}, schema());
  db.insert(cfg(1, 4), {50e3}, q(26.0, 4));
  db.insert(cfg(1, 4), {500e3}, q(5.0, 4));
  db.insert(cfg(2, 4), {50e3}, q(24.0, 4));
  db.insert(cfg(2, 4), {500e3}, q(12.0, 4));
  db.insert(cfg(1, 3), {50e3}, q(7.0, 3));
  db.insert(cfg(1, 3), {500e3}, q(1.5, 3));
  db.insert(cfg(2, 3), {50e3}, q(6.5, 3));
  db.insert(cfg(2, 3), {500e3}, q(3.5, 3));
  return db;
}

TEST(Scheduler, PicksObjectiveOptimum) {
  PerfDatabase db = crossover_db();
  UserPreference pref = minimize("transmit_time");
  pref.constraints.push_back({.metric = "resolution", .min = 4.0});
  ResourceScheduler scheduler(db, {pref});
  auto high = scheduler.select({500e3});
  ASSERT_TRUE(high);
  EXPECT_EQ(high->config, cfg(1, 4));
  auto low = scheduler.select({50e3});
  ASSERT_TRUE(low);
  EXPECT_EQ(low->config, cfg(2, 4));
}

TEST(Scheduler, ConstraintsPruneCandidates) {
  PerfDatabase db = crossover_db();
  // Maximize resolution subject to transmit_time <= 10 s.
  UserPreference pref = maximize_metric("resolution");
  pref.constraints.push_back({.metric = "transmit_time", .max = 10.0});
  ResourceScheduler scheduler(db, {pref});
  // At 500 KBps level 4 fits the deadline (5 s with c=1).
  EXPECT_EQ(scheduler.select({500e3})->config, cfg(1, 4));
  // At 50 KBps only level 3 fits.
  auto low = scheduler.select({50e3});
  EXPECT_EQ(low->config.get("l"), 3);
}

TEST(Scheduler, FallsThroughPreferenceList) {
  PerfDatabase db = crossover_db();
  UserPreference strict = minimize("transmit_time");
  strict.constraints.push_back({.metric = "transmit_time", .max = 1.0});
  UserPreference fallback = minimize("transmit_time");
  ResourceScheduler scheduler(db, {strict, fallback});
  auto decision = scheduler.select({50e3});
  ASSERT_TRUE(decision);
  EXPECT_EQ(decision->preference_index, 1u);
  EXPECT_TRUE(decision->fell_through);
  EXPECT_EQ(decision->config, cfg(2, 3));  // fastest overall at 50 KBps
}

TEST(Scheduler, BestEffortWhenNothingSatisfiable) {
  PerfDatabase db = crossover_db();
  UserPreference impossible = minimize("transmit_time");
  impossible.constraints.push_back({.metric = "transmit_time", .max = 0.1});
  ResourceScheduler scheduler(db, {impossible});
  auto decision = scheduler.select({500e3});
  ASSERT_TRUE(decision);
  EXPECT_TRUE(decision->fell_through);
  EXPECT_EQ(decision->config, cfg(1, 3));  // minimizes the objective anyway
}

TEST(Scheduler, InterpolatesBetweenGridPoints) {
  PerfDatabase db = crossover_db();
  ResourceScheduler scheduler(db, {minimize("transmit_time")});
  auto decision = scheduler.select({275e3});
  ASSERT_TRUE(decision);
  // c=1,l=3 interpolates to (7+1.5)/2 = 4.25, the minimum.
  EXPECT_EQ(decision->config, cfg(1, 3));
  EXPECT_NEAR(decision->predicted.get("transmit_time"), 4.25, 1e-9);
}

TEST(Scheduler, HysteresisKeepsIncumbent) {
  PerfDatabase db({"bw"}, schema());
  db.insert(cfg(1, 4), {100e3}, q(10.0, 4));
  db.insert(cfg(2, 4), {100e3}, q(9.5, 4));  // only 5% better
  ResourceScheduler::Options options;
  options.switch_hysteresis = 0.10;
  ResourceScheduler scheduler(db, {minimize("transmit_time")}, options);
  // Fresh selection prefers the better config...
  EXPECT_EQ(scheduler.select({100e3})->config, cfg(2, 4));
  // ...but an incumbent within the margin is retained.
  auto kept = scheduler.select_with_incumbent({100e3}, cfg(1, 4));
  ASSERT_TRUE(kept);
  EXPECT_EQ(kept->config, cfg(1, 4));
}

TEST(Scheduler, HysteresisYieldsToClearWinner) {
  PerfDatabase db({"bw"}, schema());
  db.insert(cfg(1, 4), {100e3}, q(10.0, 4));
  db.insert(cfg(2, 4), {100e3}, q(5.0, 4));  // 50% better
  ResourceScheduler::Options options;
  options.switch_hysteresis = 0.10;
  ResourceScheduler scheduler(db, {minimize("transmit_time")}, options);
  auto decision = scheduler.select_with_incumbent({100e3}, cfg(1, 4));
  EXPECT_EQ(decision->config, cfg(2, 4));
}

TEST(Scheduler, HysteresisIgnoredWhenIncumbentViolatesConstraints) {
  PerfDatabase db({"bw"}, schema());
  db.insert(cfg(1, 4), {100e3}, q(20.0, 4));
  db.insert(cfg(1, 3), {100e3}, q(19.0, 3));
  ResourceScheduler::Options options;
  options.switch_hysteresis = 0.50;
  UserPreference pref = minimize("transmit_time");
  pref.constraints.push_back({.metric = "transmit_time", .max = 19.5});
  ResourceScheduler scheduler(db, {pref}, options);
  auto decision = scheduler.select_with_incumbent({100e3}, cfg(1, 4));
  EXPECT_EQ(decision->config, cfg(1, 3));
}

TEST(Scheduler, FallThroughSkipsToFirstSatisfiablePreference) {
  PerfDatabase db = crossover_db();
  // Three-deep list: the first two are unsatisfiable at 50 KBps.
  UserPreference impossible = minimize("transmit_time");
  impossible.constraints.push_back({.metric = "transmit_time", .max = 0.5});
  UserPreference strict = minimize("transmit_time");
  strict.constraints.push_back({.metric = "transmit_time", .max = 1.0});
  UserPreference relaxed = minimize("transmit_time");
  relaxed.constraints.push_back({.metric = "transmit_time", .max = 10.0});
  ResourceScheduler scheduler(db, {impossible, strict, relaxed});
  auto decision = scheduler.select({50e3});
  ASSERT_TRUE(decision);
  EXPECT_EQ(decision->preference_index, 2u);
  EXPECT_TRUE(decision->fell_through);
  EXPECT_EQ(decision->config, cfg(2, 3));
}

TEST(Scheduler, BestEffortUsesLastPreferenceObjective) {
  PerfDatabase db = crossover_db();
  // Nothing satisfies either preference; the best-effort pass must optimize
  // the *last* preference's objective (maximize resolution), not the first's.
  UserPreference first = minimize("transmit_time");
  first.constraints.push_back({.metric = "transmit_time", .max = 0.1});
  UserPreference last = maximize_metric("resolution");
  last.constraints.push_back({.metric = "transmit_time", .max = 0.1});
  ResourceScheduler scheduler(db, {first, last});
  auto decision = scheduler.select({500e3});
  ASSERT_TRUE(decision);
  EXPECT_TRUE(decision->fell_through);
  EXPECT_EQ(decision->preference_index, 1u);
  EXPECT_EQ(decision->predicted.get("resolution"), 4.0);
}

TEST(Scheduler, BestEffortReportsLastPreferenceIndex) {
  PerfDatabase db = crossover_db();
  UserPreference impossible = minimize("transmit_time");
  impossible.constraints.push_back({.metric = "transmit_time", .max = 0.01});
  ResourceScheduler scheduler(db, {impossible});
  auto decision = scheduler.select({500e3});
  ASSERT_TRUE(decision);
  EXPECT_EQ(decision->preference_index, 0u);
  EXPECT_TRUE(decision->fell_through);
}

TEST(Scheduler, IncumbentUnknownToDatabaseYieldsFreshSelection) {
  PerfDatabase db({"bw"}, schema());
  db.insert(cfg(1, 4), {100e3}, q(10.0, 4));
  ResourceScheduler::Options options;
  options.switch_hysteresis = 0.50;
  ResourceScheduler scheduler(db, {minimize("transmit_time")}, options);
  auto decision = scheduler.select_with_incumbent({100e3}, cfg(9, 9));
  ASSERT_TRUE(decision);
  EXPECT_EQ(decision->config, cfg(1, 4));
}

TEST(Scheduler, RepeatedDecisionsAreStableAndCached) {
  // The scheduler reuses its candidate vector and incumbent slot table
  // across select and select_with_incumbent; repeated decisions under
  // stable resources must be identical to each other and to a fresh
  // scheduler's, and read the database without mutating it.
  PerfDatabase db = crossover_db();
  ResourceScheduler scheduler(db, {minimize("transmit_time")});
  auto first = scheduler.select({275e3});
  const std::uint64_t epoch = db.mutation_epoch();
  db.reset_prediction_stats();
  auto second = scheduler.select({275e3});
  auto third = scheduler.select_with_incumbent({275e3}, first->config);
  auto fresh = ResourceScheduler(db, {minimize("transmit_time")})
                   .select({275e3});
  ASSERT_TRUE(first && second && third && fresh);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(first->config, third->config);
  EXPECT_EQ(first->predicted, third->predicted);
  EXPECT_EQ(*first, *fresh);
  EXPECT_EQ(db.mutation_epoch(), epoch);
  EXPECT_EQ(db.prediction_stats().index_rebuilds, 0u);
}

TEST(Scheduler, RejectsBadConstruction) {
  PerfDatabase db = crossover_db();
  EXPECT_THROW(ResourceScheduler(db, {}), std::invalid_argument);
  EXPECT_THROW(ResourceScheduler(db, {minimize("nonexistent")}),
               std::invalid_argument);
}

TEST(Scheduler, EmptyDatabaseSelectsNothing) {
  PerfDatabase db({"bw"}, schema());
  ResourceScheduler scheduler(db, {minimize("transmit_time")});
  EXPECT_FALSE(scheduler.select({100e3}).has_value());
}


TEST(Scheduler, IncumbentIndexSurvivesDatabaseMutation) {
  // Regression for the incumbent slot index: select_with_incumbent finds
  // the incumbent via a config->slot map keyed to the database's mutation
  // epoch.  Inserting a config must rebuild the index, not serve a stale
  // slot (which would compare the wrong candidate's prediction).
  PerfDatabase db({"bw"}, schema());
  db.insert(cfg(1, 4), {100e3}, q(10.0, 4));
  db.insert(cfg(2, 4), {100e3}, q(9.8, 4));
  ResourceScheduler::Options options;
  options.switch_hysteresis = 0.10;
  ResourceScheduler scheduler(db, {minimize("transmit_time")}, options);
  // Warm the slot index.
  EXPECT_EQ(scheduler.select_with_incumbent({100e3}, cfg(1, 4))->config,
            cfg(1, 4));
  // New config shifts the candidate layout and clearly beats the incumbent.
  db.insert(cfg(0, 3), {100e3}, q(1.0, 3));
  auto decision = scheduler.select_with_incumbent({100e3}, cfg(1, 4));
  ASSERT_TRUE(decision);
  EXPECT_EQ(decision->config, cfg(0, 3));
  // The incumbent's own prediction is still found and honored within the
  // hysteresis margin when it is the near-best choice.
  db.insert(cfg(0, 3), {100e3}, q(10.5, 3));  // overwrite: now slightly worse
  auto kept = scheduler.select_with_incumbent({100e3}, cfg(2, 4));
  ASSERT_TRUE(kept);
  EXPECT_EQ(kept->config, cfg(2, 4));
}

}  // namespace
}  // namespace avf::adapt
