// Golden session pins: exact fingerprints of the viz session runners, fixed
// across commits.  Determinism tests compare two runs of the same code; these
// compare today's run with a value recorded once, so a refactor of the
// session wiring that reorders a single simulator event, scheduler call or
// decision-cache lookup fails here even when it stays self-consistent.
//
// If a change is *meant* to move simulated behavior, re-record the values
// and say why in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "adapt/decision_cache.hpp"
#include "viz/world.hpp"

namespace avf::viz {
namespace {

using tunable::ConfigPoint;

ConfigPoint cfg(int dR, int c, int l) {
  ConfigPoint p;
  p.set("dR", dR);
  p.set("c", c);
  p.set("l", l);
  return p;
}

WorldSetup pin_setup(int clients) {
  WorldSetup setup;
  setup.client_count = clients;
  setup.image_size = 256;
  setup.levels = 4;
  setup.image_count = 6;
  setup.link_bandwidth_bps = 500e3;
  return setup;
}

/// Small profile of the pin world: every configuration at two CPU shares
/// and two bandwidths, enough for the schedules below to force adaptation.
const perfdb::PerfDatabase& pin_db() {
  static const perfdb::PerfDatabase db =
      build_viz_database(pin_setup(1), {0.2, 1.0}, {25e3, 500e3});
  return db;
}

/// Bandwidth collapse at t=0.5 s, CPU squeeze at t=1.5 s.
ResourceSchedule pin_schedule() {
  ResourceSchedule schedule;
  schedule.link_bandwidth = {{0.5, 25e3}};
  schedule.client_cpu = {sandbox::CapChange{.at = 1.5, .cpu_share = 0.2}};
  return schedule;
}

adapt::PreferenceList pin_preferences() {
  adapt::UserPreference pref = adapt::minimize("transmit_time");
  pref.constraints.push_back({.metric = "resolution", .min = 4.0});
  return {pref};
}

MultiSessionResult as_multi(SessionResult session) {
  MultiSessionResult multi;
  multi.total_time = session.total_time;
  multi.clients.push_back(std::move(session));
  return multi;
}

TEST(SessionPins, FixedSession) {
  MultiSessionResult r =
      as_multi(run_fixed_session(pin_setup(1), cfg(160, 1, 4)));
  EXPECT_EQ(result_fingerprint(r), 16522644749818989574ull);
  EXPECT_EQ(adaptation_fingerprint(r), 14877076498106154805ull);
}

TEST(SessionPins, MultiFixedSession) {
  MultiSessionResult r =
      run_multi_fixed_session(pin_setup(4), cfg(160, 1, 4), pin_schedule());
  EXPECT_EQ(result_fingerprint(r), 15149856225329792108ull);
  EXPECT_EQ(adaptation_fingerprint(r), 1371144014277955237ull);
}

TEST(SessionPins, AdaptiveSessionUnderCpuAndLinkSteps) {
  SessionResult session = run_adaptive_session(
      pin_setup(1), pin_db(), pin_preferences(), pin_schedule());
  EXPECT_EQ(session.adaptations.size(), 1u);
  MultiSessionResult r = as_multi(std::move(session));
  EXPECT_EQ(result_fingerprint(r), 17098040421869986921ull);
  EXPECT_EQ(adaptation_fingerprint(r), 12826580822475719148ull);
}

TEST(SessionPins, MultiAdaptiveSessionWithSharedDecisionCache) {
  AdaptiveOptions options;
  options.decision_cache = std::make_shared<adapt::DecisionCache>();
  MultiSessionResult r = run_multi_adaptive_session(
      pin_setup(4), pin_db(), pin_preferences(), pin_schedule(), options);
  ASSERT_EQ(r.clients.size(), 4u);
  EXPECT_EQ(result_fingerprint(r), 1828252929619909022ull);
  EXPECT_EQ(adaptation_fingerprint(r), 9033978726131494211ull);
  const adapt::DecisionCache::Stats stats = options.decision_cache->stats();
  EXPECT_EQ(stats.hits, 11u);
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
}

}  // namespace
}  // namespace avf::viz
